(** Named monotonic counters, gauges and histograms: the cheap
    observability substrate of long-running servers (the relay daemon's
    STATS reply, the load generator's report, the [/metrics] endpoint).

    {b Handles.} Every series is a cell registered once per table:
    {!counter} returns a counter's [int Atomic.t] cell, {!histogram} a
    fixed array of per-bucket cells plus a sum cell. Hot paths resolve
    their handles once (a relay shard at creation, a connection when it
    takes its role) and update them with {!add} and {!record}: one
    bucket search and one or two [fetch_and_add]s, with no lock, no
    hashing and no string formatting. A handle stays valid for the life
    of its table and may be updated from any domain.

    {b Locking.} Each table's mutex guards only its name → cell maps:
    registration (which is also the first step of every by-name call:
    {!incr}, {!set}, {!observe}, {!get}, {!remove}) and snapshots
    ({!dump}, {!merged}, {!to_text}). Cells are read atomically, so a
    snapshot taken while other domains count never blocks them; each
    value in it is one that the cell held during the snapshot.

    {b Same bounds.} A histogram name has one set of bucket bounds for
    the life of its table: registering it again (by {!histogram} or
    {!observe}) with different bounds raises [Invalid_argument]. *)

type t

val create : unit -> t

type counter = int Atomic.t

val counter : t -> string -> counter
(** [counter t name] registers [name] (at 0) if absent and returns its
    cell. Registration alone does not list the counter in snapshots: it
    appears once non-zero or once touched through {!incr}/{!set}. *)

val add : counter -> int -> unit
(** [add c n] adds [n] to the cell: one [fetch_and_add]. *)

type histogram

val histogram : t -> ?bounds:int list -> string -> histogram
(** [histogram t name] registers the histogram [name] if absent and
    returns its cells. [bounds] are the inclusive bucket upper bounds,
    strictly ascending ({!default_bounds} when omitted); anything else,
    or bounds that differ from [name]'s first registration, raises
    [Invalid_argument]. *)

val record : histogram -> int -> unit
(** [record h v] adds one sample (e.g. a latency in microseconds): a
    binary search for its bucket, then one [fetch_and_add] on the
    bucket and one on the sum. *)

val incr : t -> ?by:int -> string -> unit
(** [incr t name] adds [by] (default 1) to [name], creating it at 0:
    {!counter} then {!add}. *)

val set : t -> string -> int -> unit
(** [set t name v] overwrites [name] with [v] — the gauge primitive
    (queue depths, store segment/byte totals) next to the monotonic
    {!incr}. *)

val observe : t -> ?bounds:int list -> string -> int -> unit
(** [observe t name v] is {!histogram} then {!record}. Snapshots render
    a histogram as the plain counters of the reserved ["hist."] group —
    cumulative buckets ["hist.<name>.le_<bound>"] (zero-padded, each
    listed once a sample has reached it), ["hist.<name>.le_inf"],
    ["hist.<name>.count"] and ["hist.<name>.sum"] (listed once there is
    a sample) — so they flow through {!dump}, {!to_text} and {!merged}
    unchanged, and summing per-shard snapshots merges histograms
    bucket-wise. *)

val default_bounds : int list
(** 50 .. 1_000_000 — microsecond-scale latency buckets. *)

val remove : t -> string -> unit
(** Drop a gauge whose subject went away (e.g. a stream whose store
    segments were all retired); no-op if absent. A handle to it keeps
    working but is no longer reported. *)

val get : t -> string -> int
(** The value {!dump} would report for [name] (including ["hist.*"]
    rows); 0 for names never touched. *)

val dump : t -> (string * int) list
(** All counters, sorted by name. *)

val merged : t list -> (string * int) list
(** Sum same-named counters across tables (per-shard totals into one
    view), sorted by name. *)

val to_text : t -> string
(** One ["name value\n"] line per counter, sorted — the STATS wire body. *)

val of_text : string -> (string * int) list
(** Parse {!to_text} output (unparseable lines are skipped). *)

type staleness
(** Scrape-to-scrape memory for {!prometheus} staleness marks. *)

val staleness : unit -> staleness
(** A fresh tracker; share one across every component rendered behind
    the same scrape endpoint. *)

val prometheus :
  ?staleness:staleness -> component:string -> (string * int) list -> string
(** Render a snapshot in Prometheus text exposition format, one
    [omf_<component>_<name> <value>] line per counter; characters
    outside [[a-zA-Z0-9_]] in [component] or names become ['_'].

    Per-subject gauges named [<group>.<subject>.<metric>] (the relay's
    ["stream.flights.queue_depth"], the mirror's
    ["mirror.flights.lag_frames"]) render with the subject as a label —
    [omf_<component>_<group>_<metric>{stream="<subject>"}] — so one
    metric aggregates across streams. The subject is the text between
    the first and last dot and may itself contain dots; quotes,
    backslashes and newlines in it are escaped.

    Histogram counters from {!observe} ([hist.<name>.*]) render in the
    Prometheus histogram convention:
    [omf_<component>_<name>_bucket{le="<bound>"}] (with [le="+Inf"] for
    the overflow bucket), [omf_<component>_<name>_sum] and
    [omf_<component>_<name>_count].

    With [?staleness], each render also compares every series against
    the tracker's previous scrape and appends a
    [# staleness: <component>: K of N series unchanged since previous
    scrape] annotation plus a [omf_<component>_stale K] marker series —
    a scrape-time signal that a component has gone quiet (or that a
    gauge source is wedged) without any server-side timers. Series
    first seen this scrape count as fresh. *)

val push :
  ?timeout_s:float ->
  url:string ->
  (string * (string * int) list) list ->
  (unit, string) result
(** [push ~url sources] POSTs the {!prometheus} rendering of each
    [(component, snapshot)] source to [url] in one shot — push-gateway
    mode for short-lived tools (the load generator, the bench harness)
    that exit before any scrape could happen. [url] is
    [http://host[:port][/path]]; the path defaults to
    [/metrics/job/omf]. Blocking, bounded by [timeout_s] (default 2 s)
    per socket operation; every failure (resolution, refusal, non-2xx)
    is returned as [Error message], never raised. *)
