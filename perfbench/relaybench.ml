(** relaybench: the relay's end-to-end benchmark with per-layer
    attribution (see perfbench/README.md).

    [relaybench --workload W --seed N --seconds S --trace 0|1] starts
    the real relayd binary as a separate process and drives it from one
    load process: one publisher and one subscriber, each on its own
    domain, so a measured window holds two load threads and two
    connections. STATS probes open and close between windows. Every
    delivered event is regenerated from (seed, seq) and compared with
    the decoded value.

    Workloads:
    - [live-small]: memory-only relay, paper structure-A events from an
      x86-64 publisher to a sparc-32 subscriber; open loop at 5,000/s;
    - [durable-bulk]: store-backed relay with segment compression and
      [comp=lz] on both client links; 4 KiB [samples] blocks decoded as
      power-64; open loop at 500/s, about half the closed-loop rate on a
      2-vCPU host;
    - [replay-catchup]: the durable-bulk relay configuration; set-up
      publishes a structure-A backlog spanning many sealed segments and
      each window is one [SUBSCRIBE from=0] reading all of it.

    [--trace 0] measures the end-to-end metrics with tracing off.
    [--trace 1] is a separate run: layer microbenchmarks on the
    workload's own frames, an untraced pass, and a pass against a
    relayd with [--trace-sample 1] whose [/trace/summary] and STATS,
    plus timed client links, give the per-layer metrics. Client spans
    go to [.bench_out/<workload>-seed<N>.trace.json].

    The last line of standard output is one JSON object:
    [{"correct", "attempted", "failed", "metrics"}]. The exit code is 1
    when any event was lost, duplicated, reordered, mismatched, refused
    or cut short. *)

open Omf_machine
open Omf_pbio.Pbio
module Relay = Omf_relay.Relay
module Endpoint = Omf_transport.Endpoint
module Link = Omf_transport.Link
module Catalog = Omf_xml2wire.Catalog
module X2W = Omf_xml2wire.Xml2wire
module Fx = Omf_fixtures.Paper_structs

type workload = {
  name : string;
  schema : string;
  format : string;
  sub_abi : Abi.t;
  durable : bool;  (** store + segment compression + [comp=lz] links *)
  rate : float;  (** open-loop events/s; 0 for the replay workload *)
  event : seed:int -> int -> Value.t;
}

let workloads =
  [ { name = "live-small"; schema = Fx.schema_a; format = "ASDOffEvent"
    ; sub_abi = Abi.sparc_32; durable = false; rate = 5000.0
    ; event = Gen.structure_a }
  ; { name = "durable-bulk"; schema = Gen.schema_samples; format = "samples"
    ; sub_abi = Abi.power_64; durable = true; rate = 500.0; event = Gen.samples }
  ; { name = "replay-catchup"; schema = Fx.schema_a; format = "ASDOffEvent"
    ; sub_abi = Abi.sparc_32; durable = true; rate = 0.0
    ; event = Gen.structure_a } ]

let stream = "bench"
let io_timeout_s = 10.0

(** Events in the replay backlog: about eight 1 MiB segments of
    structure-A records. *)
let backlog = 60_000

(** Events exchanged after set-up and before the first window. *)
let warmup = 500

(* ------------------------------------------------------------------ *)
(* Set-up: relayd, publisher, subscriber                                *)
(* ------------------------------------------------------------------ *)

type pub = {
  pc : Relay.Client.t;
  sender : Endpoint.Sender.t;
  fmt : Format.t;
  plink : Timed_link.t option;
}

type sub = {
  sc : Relay.Client.t;
  rx : Endpoint.Receiver.t;
  slink : Timed_link.t option;
}

let connect w (r : Probe.t) =
  let c = Relay.Client.connect ~port:r.port ~compress:w.durable ~io_timeout_s () in
  if w.durable && not (Relay.Client.compressed c) then
    failwith "relay did not grant comp=lz";
  c

let maybe_wrap timed link =
  match timed with Some t -> Timed_link.wrap t link | None -> link

let open_pub ?timed w r =
  let pc = connect w r in
  Relay.Client.advertise pc ~stream ~schema:w.schema;
  let link = maybe_wrap timed (Relay.Client.publish pc ~stream) in
  let catalog = Catalog.create Abi.x86_64 in
  ignore (X2W.register_schema catalog w.schema);
  let fmt = Option.get (Catalog.find_format catalog w.format) in
  { pc; sender = Endpoint.Sender.create link (Memory.create Abi.x86_64); fmt
  ; plink = timed }

let open_sub ?timed ?from w r =
  let sc = connect w r in
  let schema, link =
    match from with
    | Some from ->
      let _, schema, link = Relay.Client.subscribe_from sc ~stream ~from in
      (schema, link)
    | None -> Relay.Client.subscribe sc ~stream
  in
  let catalog = Catalog.create w.sub_abi in
  ignore (X2W.register_schema ~source:"relay" catalog schema);
  let rx =
    Endpoint.Receiver.create (maybe_wrap timed link) (Catalog.registry catalog)
      (Memory.create w.sub_abi)
  in
  { sc; rx; slink = timed }

(* Per-event pbio time outside the link, in microseconds: [send_value]
   or [recv_value] minus the link calls made inside it. *)
let link_busy = function Some (t : Timed_link.t) -> t.busy_ns | None -> 0

let send ?clock w ~seed p seq =
  let v = w.event ~seed seq in
  (match p.plink with Some t -> t.seq <- seq | None -> ());
  let t0 = Stat.now_ns () and b0 = link_busy p.plink in
  Endpoint.Sender.send_value p.sender p.fmt v;
  (match clock with
  | Some c ->
    let dt = Stat.now_ns () - t0 in
    Stat.add c (float_of_int (dt - (link_busy p.plink - b0)) /. 1000.0);
    Option.iter (fun l -> Timed_link.span l "pbio.send_value" t0 dt) p.plink
  | None -> ());
  Memory.reset (Endpoint.Sender.memory p.sender)

let recv ?clock s =
  let t0 = Stat.now_ns () and b0 = link_busy s.slink in
  match Endpoint.Receiver.recv_value s.rx with
  | None -> None
  | Some (_, v) ->
    (match clock with
    | Some c ->
      let dt = Stat.now_ns () - t0 in
      Stat.add c (float_of_int (dt - (link_busy s.slink - b0)) /. 1000.0);
      Option.iter
        (fun l ->
          l.Timed_link.seq <- Gen.seq_of v;
          Timed_link.span l "pbio.recv_value" t0 dt)
        s.slink
    | None -> ());
    Memory.reset
      (Omf_pbio.Pbio.Receiver.memory (Endpoint.Receiver.pbio_receiver s.rx));
    Some v

let relay_args w ~traced =
  (if w.durable then
     [ "--store-compress"; "--store-segment-mb"
     ; string_of_int (Micro.segment_bytes / 1024 / 1024) ]
   else [])
  @ if traced then [ "--trace-sample"; "1"; "--trace-buffer"; "262144" ] else []

type env = { dir : string; mutable relays : int }

let start_relay env w ~traced =
  env.relays <- env.relays + 1;
  let tag = Printf.sprintf "%s/relay-%d" env.dir env.relays in
  Probe.spawn ~log:(tag ^ ".log")
    ?store_root:(if w.durable then Some (tag ^ "-store") else None)
    ~metrics:traced (relay_args w ~traced)

let close_pub p = Relay.Client.close p.pc
let close_sub s = Relay.Client.close s.sc

(* ------------------------------------------------------------------ *)
(* Measured phases                                                       *)
(* ------------------------------------------------------------------ *)

type phase = {
  sent : int;
  oracle : Gen.oracle;
  elapsed_s : float;  (** first send to last verified event *)
  lat_ms : float array;  (** per event, from its due time *)
  late_ms : float array;  (** open loop: how late each send started *)
  refused : int;  (** publisher sends that raised *)
  gen_cpu_s : float;
  pub_pbio : Stat.samples;
  sub_pbio : Stat.samples;
  ndr_bytes : float;  (** NDR payload bytes per message the subscriber read *)
}

let ndr_bytes s =
  let st = Omf_pbio.Pbio.Receiver.stats (Endpoint.Receiver.pbio_receiver s.rx) in
  float_of_int st.bytes /. float_of_int (max 1 st.messages)

let process_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let link_errors = function
  | Link.Closed | Link.Timeout | Relay.Client.Error _ | Relay.Client.Busy _
  | Unix.Unix_error _ | Endpoint.Protocol_error _ | Sys_error _ ->
    true
  | _ -> false

(** One publisher domain and one subscriber domain over an open
    session. [`Closed d]: send back to back for [d] seconds (the
    subscriber's pace sets the rate under the Block policy). [`Open
    (rate, n)]: send [n] events on the absolute schedule
    [t0 + i / rate], stamping latency from each due time. *)
let run_phase ?(traced = false) w ~seed ~first mode p s =
  let final = Atomic.make (-1) in
  let start = Atomic.make 0 in
  let count, period_ns =
    match mode with
    | `Open (rate, n) ->
      Atomic.set final (first + n - 1);
      (n, 1e9 /. rate)
    | `Closed _ -> (0, 0.0)
  in
  let pub_pbio = Stat.samples () and sub_pbio = Stat.samples () in
  let cpu0 = process_cpu () in
  let publisher () =
    let late = Array.make (max 1 count) 0.0 in
    let t0 = Stat.now_ns () in
    Atomic.set start t0;
    let clock = if traced then Some pub_pbio else None in
    let sent = ref 0 in
    let refused = ref 0 in
    let send_one seq =
      try send ?clock w ~seed p seq; incr sent
      with e when link_errors e -> incr refused
    in
    (match mode with
    | `Closed d ->
      let deadline = t0 + int_of_float (d *. 1e9) in
      let seq = ref first in
      while Stat.now_ns () < deadline && !refused = 0 do
        send_one !seq;
        incr seq
      done;
      Atomic.set final !seq;
      send_one !seq
    | `Open _ ->
      for i = 0 to count - 1 do
        let due = t0 + int_of_float (float_of_int i *. period_ns) in
        let wait = due - Stat.now_ns () in
        if wait > 0 then Unix.sleepf (float_of_int wait *. 1e-9);
        late.(i) <- float_of_int (Stat.now_ns () - due) /. 1e6;
        if !refused = 0 then send_one (first + i)
      done);
    (!sent, !refused, late)
  in
  let subscriber () =
    let o = Gen.oracle first in
    let lat = Array.make (max 1 count) 0.0 in
    let clock = if traced then Some sub_pbio else None in
    let last = ref 0 in
    let rec loop () =
      match recv ?clock s with
      | None -> ()
      | Some v ->
        let seq = Gen.check o ~expect:(w.event ~seed) v in
        let now = Stat.now_ns () in
        last := now;
        let i = seq - first in
        if i >= 0 && i < count then
          lat.(i) <-
            float_of_int
              (now - Atomic.get start - int_of_float (float_of_int i *. period_ns))
            /. 1e6;
        let f = Atomic.get final in
        if f < 0 || o.next <= f then loop ()
    in
    (try loop () with e when link_errors e -> ());
    (o, !last, lat, ndr_bytes s)
  in
  (* the publisher runs on the calling domain: a third domain blocked
     in [Domain.join] would still have to answer every minor
     collection's stop-the-world request *)
  let sd = Domain.spawn subscriber in
  let sent, refused, late = publisher () in
  let o, last, lat, ndr = Domain.join sd in
  let gen_cpu_s = process_cpu () -. cpu0 in
  Gen.close_short o ~last:(Atomic.get final);
  { sent; oracle = o
  ; elapsed_s = float_of_int (last - Atomic.get start) *. 1e-9
  ; lat_ms = lat; late_ms = late; refused; gen_cpu_s; pub_pbio; sub_pbio
  ; ndr_bytes = ndr }

type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

let account (ph : phase) =
  tally.attempted <- tally.attempted + ph.sent + ph.refused;
  tally.failed <- tally.failed + Gen.errors ph.oracle + ph.refused

(** The relay-side view of a window: CPU and STATS deltas. *)
type window = {
  relay_cpu_s : float;
  before : (string * int) list;
  after : (string * int) list;
}

(** Run [f] as a measured window on relay [r]: STATS just before and
    after it, relay CPU strictly around it. *)
let measured r f =
  let before = Probe.stats r in
  let cpu0 = Probe.cpu_s r in
  let x = f () in
  let relay_cpu_s = Probe.cpu_s r -. cpu0 in
  let after = Probe.stats r in
  (x, { relay_cpu_s; before; after })

(** Start relayd, connect a publisher and a live subscriber, and wait
    until the relay has registered the subscription. *)
let live_session ?ptimed ?stimed env w ~seed ~traced =
  let t0 = Stat.now_s () in
  let r = start_relay env w ~traced in
  let p = open_pub ?timed:ptimed w r in
  let s = open_sub ?timed:stimed w r in
  ignore
    (Probe.wait_for r "subscriber registered" (fun st ->
         Probe.get st (Printf.sprintf "stream.%s.subscribers" stream) >= 1));
  let setup_s = Stat.now_s () -. t0 in
  (* negotiate the descriptor and warm both connections before any
     window opens; measured phases start at seq [warmup] *)
  account (run_phase w ~seed ~first:0 (`Open (infinity, warmup)) p s);
  (r, p, s, setup_s)

(** Start relayd and publish the seeded backlog closed-loop, waiting
    until the store holds every event. *)
let backlog_session ?ptimed ?clock env w ~seed ~traced =
  let t0 = Stat.now_s () in
  let r = start_relay env w ~traced in
  let p = open_pub ?timed:ptimed w r in
  for seq = 0 to backlog - 1 do
    send ?clock w ~seed p seq
  done;
  ignore
    (Probe.wait_for r "backlog stored" (fun st -> Probe.get st "store_appends" >= backlog));
  (r, p, Stat.now_s () -. t0)

(** One replay of the whole backlog on a fresh connection: every event
    is due at the SUBSCRIBE, so latency is catch-up time. *)
let replay ?stimed ?clock w ~seed r =
  let t0 = Stat.now_ns () in
  let o = Gen.oracle 0 in
  let lat = Array.make backlog 0.0 in
  let last = ref t0 in
  let cpu0 = process_cpu () in
  let ndr = ref 0.0 in
  (try
     let s = open_sub ?timed:stimed ~from:0 w r in
     let rec loop () =
       match recv ?clock s with
       | None -> ()
       | Some v ->
         let seq = Gen.check o ~expect:(w.event ~seed) v in
         last := Stat.now_ns ();
         if seq >= 0 && seq < backlog then lat.(seq) <- float_of_int (!last - t0) /. 1e6;
         if o.next < backlog then loop ()
     in
     (try loop () with e when link_errors e -> ());
     ndr := ndr_bytes s;
     close_sub s
   with e when link_errors e -> ());
  Gen.close_short o ~last:(backlog - 1);
  { sent = backlog; oracle = o; elapsed_s = float_of_int (!last - t0) *. 1e-9
  ; lat_ms = lat; late_ms = [| 0.0 |]; refused = 0
  ; gen_cpu_s = process_cpu () -. cpu0
  ; pub_pbio = Stat.samples (); sub_pbio = Option.value clock ~default:(Stat.samples ())
  ; ndr_bytes = !ndr }

(* ------------------------------------------------------------------ *)
(* Results                                                              *)
(* ------------------------------------------------------------------ *)

let metrics : (string * float * string) list ref = ref []

let report name value unit =
  metrics := (name, value, unit) :: !metrics;
  Printf.printf "%-32s %14.4f %s\n%!" name value unit

let delivered ph = float_of_int ph.oracle.Gen.verified

(** Samples [0, n) of the arrays a phase filled in event order. *)
let samples ph = Array.sub ph.lat_ms 0 (min ph.sent (Array.length ph.lat_ms))

let per_event (win : window) events k =
  float_of_int (Probe.delta win.before win.after k) /. max 1.0 events

(** The open loop is honest only while the generator keeps to its
    schedule: flag a run whose p99 lateness exceeds the p50 latency it
    measures from the same due times. *)
let flag_late ~late99 ~lat50 =
  if late99 > lat50 then
    Printf.printf
      "gen.behind: generator p99 lateness %.3f ms exceeds the p50 latency %.3f \
       ms it measures\n%!"
      late99 lat50

(** [--trace 0]: every end-to-end metric, tracing off. *)
let run_end_to_end env w ~seed ~seconds =
  let setups = ref [] in
  let note_setup s = setups := s :: !setups in
  let teardown r p s =
    close_sub s;
    close_pub p;
    Probe.stop r
  in
  if w.rate > 0.0 then begin
    (* Two relays, each interleaving closed-loop and open-loop windows,
       so drift in host speed over the run reaches both kinds alike.
       Throughput and tail latency are medians over windows: a burst of
       host noise spoils one window rather than the run. An open-loop
       window lasts at least a second and holds at least 3,000 events,
       so its p99 has 30 samples beyond it. *)
    let n = max (int_of_float w.rate) 3000 in
    let opens = max 1 (int_of_float (0.4 *. seconds *. w.rate /. float_of_int n)) in
    let closes = 6 in
    let closed = ref [] and opn = ref [] and wins = ref [] and rss = ref 0.0 in
    for _ = 1 to 2 do
      let r, p, s, st = live_session env w ~seed ~traced:false in
      note_setup st;
      let first = ref warmup in
      let window mode =
        let ph = run_phase w ~seed ~first:!first mode p s in
        account ph;
        first := !first + ph.sent + ph.refused;
        ph
      in
      for i = 1 to max opens closes do
        if i <= closes then
          closed := window (`Closed (0.02 *. seconds)) :: !closed;
        if i <= opens then begin
          let ph, win = measured r (fun () -> window (`Open (w.rate, n))) in
          opn := ph :: !opn;
          wins := win :: !wins
        end
      done;
      rss := Float.max !rss (Probe.peak_rss_mb r);
      teardown r p s
    done;
    (* set-up is short and jittery next to the windows: sample it more *)
    for _ = 1 to 9 do
      let r, p, s, st = live_session env w ~seed ~traced:false in
      note_setup st;
      teardown r p s
    done;
    let closed = !closed and opn = !opn and wins = !wins in
    let med f phases = Stat.median (Array.of_list (List.map f phases)) in
    let sum f l = List.fold_left (fun a x -> a +. f x) 0.0 l in
    let events = sum delivered opn in
    let late = Array.concat (List.map (fun ph -> ph.late_ms) opn) in
    report "setup_s" (Stat.median (Array.of_list !setups)) "s";
    report "throughput_eps" (med (fun ph -> delivered ph /. ph.elapsed_s) closed) "events/s";
    let lat50 = Stat.percentile (Array.concat (List.map samples opn)) 0.50 in
    report "latency_p50_ms" lat50 "ms";
    report "wire_bytes_per_event"
      (sum (fun win -> float_of_int (Probe.delta win.before win.after "bytes_out")) wins
       /. events)
      "B/event";
    report "relay_cpu_us_per_event" (sum (fun win -> win.relay_cpu_s) wins *. 1e6 /. events)
      "us/event";
    report "relay_peak_rss_mb" !rss "MiB";
    (* the tail swings with host scheduling on a shared 2-vCPU host
       (see README.md): printed, not among the gated metrics *)
    List.iter
      (fun (name, q) ->
        Printf.printf "%-32s %14.4f ms (median over windows; not gated)\n" name
          (med (fun ph -> Stat.percentile (samples ph) q) opn))
      [ ("latency_p95_ms", 0.95); ("latency_p99_ms", 0.99) ];
    let late99 = Stat.percentile late 0.99 in
    Printf.printf "gen.late_p99_ms %.4f ms (%d windows of %d events, open loop %.0f/s)\n"
      late99 (List.length opn) n w.rate;
    flag_late ~late99 ~lat50
  end
  else begin
    (* one backlog replayed while another replay still fits in the
       window; two more backlogs only to sample set-up *)
    let phases = ref [] and wins = ref [] in
    let r, p, st = backlog_session env w ~seed ~traced:false in
    note_setup st;
    let deadline = Stat.now_s () +. seconds in
    let rec go () =
      let t0 = Stat.now_s () in
      let ph, win = measured r (fun () -> replay w ~seed r) in
      account ph;
      phases := ph :: !phases;
      wins := win :: !wins;
      if Stat.now_s () +. (Stat.now_s () -. t0) <= deadline then go ()
    in
    go ();
    let rss = Probe.peak_rss_mb r in
    close_pub p;
    Probe.stop r;
    for _ = 1 to 2 do
      let r, p, st = backlog_session env w ~seed ~traced:false in
      note_setup st;
      close_pub p;
      Probe.stop r
    done;
    let phases = Array.of_list !phases and wins = Array.of_list !wins in
    let med f = Stat.median (Array.map f phases) in
    let medw f = Stat.median (Array.mapi (fun i win -> f win phases.(i)) wins) in
    report "setup_s" (Stat.median (Array.of_list !setups)) "s";
    report "throughput_eps" (med (fun ph -> delivered ph /. ph.elapsed_s)) "events/s";
    report "latency_p50_ms" (med (fun ph -> Stat.percentile (samples ph) 0.50)) "ms";
    List.iter
      (fun (name, q) ->
        Printf.printf "%-32s %14.4f ms (median over replays; not gated)\n" name
          (med (fun ph -> Stat.percentile (samples ph) q)))
      [ ("latency_p95_ms", 0.95); ("latency_p99_ms", 0.99) ];
    report "wire_bytes_per_event"
      (medw (fun win ph -> per_event win (delivered ph) "bytes_out"))
      "B/event";
    report "relay_cpu_us_per_event"
      (medw (fun win ph -> win.relay_cpu_s *. 1e6 /. delivered ph))
      "us/event";
    report "relay_peak_rss_mb" rss "MiB"
  end

(** The workload's own message frames, as the relay receives them. *)
let capture_frames w ~seed ~first ~count =
  let frames = ref [] in
  let link =
    { Link.send = (fun b -> if Bytes.get b 0 = 'M' then frames := b :: !frames)
    ; recv = (fun () -> None); close = ignore }
  in
  let catalog = Catalog.create Abi.x86_64 in
  ignore (X2W.register_schema catalog w.schema);
  let fmt = Option.get (Catalog.find_format catalog w.format) in
  let sender = Endpoint.Sender.create link (Memory.create Abi.x86_64) in
  for seq = first to first + count - 1 do
    Endpoint.Sender.send_value sender fmt (w.event ~seed seq);
    Memory.reset (Endpoint.Sender.memory sender)
  done;
  (fmt, Array.of_list (List.rev !frames))

(** Primitive ops in the subscriber's compiled conversion plan. *)
let convert_ops w pub_fmt =
  let catalog = Catalog.create w.sub_abi in
  ignore (X2W.register_schema catalog w.schema);
  let native = Option.get (Catalog.find_format catalog w.format) in
  let wire = Format_codec.decode (Format_codec.encode pub_fmt) in
  Convert.op_count (Convert.compile ~wire ~native)

(** [--trace 1]: the per-layer metrics. *)
let run_per_layer env w ~seed ~seconds =
  (* layer microbenchmarks on this workload's frames *)
  let pub_fmt, sample = capture_frames w ~seed ~first:0 ~count:256 in
  (* distinct events for a whole segment, as the store would seal them *)
  let _, segment =
    capture_frames w ~seed ~first:256
      ~count:(Micro.segment_bytes / Bytes.length sample.(0) + 1)
  in
  let m = Micro.run ~dir:env.dir ~stream ~durable:w.durable ~sample ~segment in
  let ptimed = Timed_link.create ~tid:1 () and stimed = Timed_link.create ~tid:2 () in
  let untraced_tput, traced_tput, cpu_per_event, late99, gen_cpu, ph, win, summary, disk =
    if w.rate > 0.0 then begin
      let closed_pass ~traced =
        let r, p, s, _ = live_session env w ~seed ~traced in
        let ph = run_phase w ~seed ~first:warmup (`Closed (0.2 *. seconds)) p s in
        account ph;
        close_sub s; close_pub p; Probe.stop r;
        delivered ph /. ph.elapsed_s
      in
      let n = int_of_float (w.rate *. 0.3 *. seconds) in
      let untraced = closed_pass ~traced:false in
      let r, p, s, _ = live_session env w ~seed ~traced:false in
      let opn, wo = measured r (fun () -> run_phase w ~seed ~first:warmup (`Open (w.rate, n)) p s) in
      account opn;
      close_sub s; close_pub p; Probe.stop r;
      let traced = closed_pass ~traced:true in
      let r, p, s, _ = live_session ~ptimed ~stimed env w ~seed ~traced:true in
      Timed_link.reset ptimed;
      Timed_link.reset stimed;
      let ph, win =
        measured r (fun () -> run_phase ~traced:true w ~seed ~first:warmup (`Open (w.rate, n)) p s)
      in
      account ph;
      let summary = Probe.trace_summary r in
      let disk = Probe.disk r in
      close_sub s; close_pub p; Probe.stop r;
      ( untraced, traced, wo.relay_cpu_s *. 1e6 /. delivered opn
      , Stat.percentile opn.late_ms 0.99, opn.gen_cpu_s, ph, win, summary, disk )
    end
    else begin
      let pub_clock = Stat.samples () in
      let pass ~traced =
        let r, p, _ =
          if traced then backlog_session ~ptimed ~clock:pub_clock env w ~seed ~traced
          else backlog_session env w ~seed ~traced
        in
        let clock = Stat.samples () in
        let ph, win =
          measured r (fun () ->
              replay ?stimed:(if traced then Some stimed else None) ~clock w ~seed r)
        in
        account ph;
        let summary = Probe.trace_summary r in
        let disk = Probe.disk r in
        close_pub p;
        Probe.stop r;
        (ph, win, summary, disk)
      in
      let uph, uwin, _, _ = pass ~traced:false in
      let ph, win, summary, disk = pass ~traced:true in
      let ph = { ph with pub_pbio = pub_clock } in
      ( delivered uph /. uph.elapsed_s, delivered ph /. ph.elapsed_s
      , uwin.relay_cpu_s *. 1e6 /. delivered uph, 0.0, uph.gen_cpu_s, ph, win
      , summary, disk )
    end
  in
  let ev = max 1.0 (delivered ph) in
  let us stage key = Probe.summary_us summary stage key in
  let calls k = per_event win (delivered ph) k in
  report "relay.publish_admit_us_p50" (us "publish_admit" "p50_us") "us";
  report "relay.publish_admit_us_p99" (us "publish_admit" "p99_us") "us";
  report "relay.fanout_enqueue_us_p50" (us "fanout_enqueue" "p50_us") "us";
  report "relay.flush_us_p50" (us "flush" "p50_us") "us";
  report "relay.flush_us_p99" (us "flush" "p99_us") "us";
  report "relay.deliver_us_p99" (us "deliver" "p99_us") "us";
  report "relay.frames_in_per_event" (calls "frames_in") "frames/event";
  report "relay.frames_out_per_event" (calls "frames_out") "frames/event";
  report "relay.frames_dropped"
    (float_of_int (Probe.delta win.before win.after "frames_dropped")) "count";
  report "relay.trace_overhead_pct" (100.0 *. (untraced_tput -. traced_tput) /. untraced_tput) "%";
  report "reactor.frame_encode_ns" m.frame_encode_ns "ns";
  report "reactor.frame_decode_ns" m.frame_decode_ns "ns";
  report "counters.incr_ns" m.incr_ns "ns";
  report "counters.observe_ns" m.observe_ns "ns";
  report "transport.send_us_p50" (Stat.quantile ptimed.durs_us 0.50) "us";
  report "transport.send_us_p99" (Stat.quantile ptimed.durs_us 0.99) "us";
  report "transport.recv_wait_us_p50" (Stat.quantile stimed.durs_us 0.50) "us";
  report "transport.frames_per_event"
    (float_of_int (Timed_link.calls ptimed + Timed_link.calls stimed) /. ev)
    "frames/event";
  let stream_gauge k = Probe.get win.after (Printf.sprintf "store.%s.%s" stream k) in
  let segments, disk_bytes = disk in
  report "store.append_us_p50" (us "store_append" "p50_us") "us";
  report "store.append_us_p99" (us "store_append" "p99_us") "us";
  report "store.append_ns" m.store_append_ns "ns";
  report "store.bytes_per_event"
    (float_of_int disk_bytes /. float_of_int (max 1 (Probe.get win.after "store_appends")))
    "B/event";
  report "store.segments_sealed" (float_of_int (max 0 (segments - 1))) "count";
  let replay_chunks =
    Probe.delta win.before win.after "store_replay_chunks"
    + Probe.delta win.before win.after "store_replay_done"
  in
  report "store.replay_chunks" (float_of_int replay_chunks) "count";
  report "store.replay_frames_per_chunk"
    (float_of_int (Probe.delta win.before win.after "store_replay_frames")
     /. float_of_int (max 1 replay_chunks))
    "frames/chunk";
  report "store.replay_throttled"
    (float_of_int (Probe.delta win.before win.after "store_replay_throttled")) "count";
  let ratio raw wire = if wire > 0 then float_of_int raw /. float_of_int wire else 0.0 in
  let link_raw, link_wire =
    (* the relay's outbound compression on this stream's connections *)
    ( Probe.delta win.before win.after (Printf.sprintf "comp.%s.raw_bytes" stream)
    , Probe.delta win.before win.after (Printf.sprintf "comp.%s.wire_bytes" stream) )
  in
  report "compress.link_ratio" (ratio link_raw link_wire) "ratio";
  report "compress.segment_ratio"
    (ratio (stream_gauge "comp_raw") (stream_gauge "comp_stored")) "ratio";
  report "compress.lz_ns_per_kib" m.lz_ns_per_kib "ns/KiB";
  report "compress.unlz_ns_per_kib" m.unlz_ns_per_kib "ns/KiB";
  report "compress.seal_ms" m.seal_ms "ms";
  report "pbio.encode_us" (Stat.quantile ph.pub_pbio 0.5) "us";
  report "pbio.decode_us" (Stat.quantile ph.sub_pbio 0.5) "us";
  report "pbio.convert_ops" (float_of_int (convert_ops w pub_fmt)) "count";
  report "pbio.ndr_bytes" ph.ndr_bytes "B";
  report "gen.late_p99_ms" late99 "ms";
  report "gen.cpu_s" gen_cpu "s";
  (* Σ(layer cost × calls per event, counted by the relay) against the
     relay's CPU per event in the untraced pass. Counter calls: the
     frame and event counters themselves, bytes_in/bytes_out at about
     one call per frame, and two per compressed frame. On durable
     workloads each event's bytes are inflated once on the way in (or
     out of a sealed segment) and compressed once on the way out. *)
  let raw_kib = float_of_int link_raw /. 1024.0 /. ev in
  let incr_calls =
    (2.0 *. (calls "frames_in" +. calls "frames_out"))
    +. calls "events_relayed" +. calls "store_appends"
    +. (2.0 *. calls "hist.compress_ratio.count")
  in
  let explained_ns =
    (m.frame_decode_ns *. calls "frames_in")
    +. (m.frame_encode_ns *. calls "frames_out")
    +. (m.incr_ns *. incr_calls)
    +. m.observe_ns
       *. (calls "hist.publish_admit_us.count" +. calls "hist.compress_ratio.count")
    +. (m.store_append_ns *. calls "store_appends")
    +. if w.durable then (m.lz_ns_per_kib +. m.unlz_ns_per_kib) *. raw_kib else 0.0
  in
  report "attrib.explained_frac" (explained_ns /. (cpu_per_event *. 1000.0)) "frac";
  Printf.printf "attrib: %.1f ns/event explained of %.1f us/event relay CPU\n"
    explained_ns cpu_per_event;
  Timed_link.write_chrome
    (Printf.sprintf ".bench_out/%s-seed%d.trace.json" w.name seed)
    [ ptimed; stimed ]

(* ------------------------------------------------------------------ *)
(* Command line                                                          *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: relaybench --workload live-small|durable-bulk|replay-catchup \
     --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let opt k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let w =
    match List.find_opt (fun w -> w.name = opt "workload") workloads with
    | Some w -> w
    | None -> usage ()
  in
  let seed = int_of_string (opt "seed") in
  let seconds = float_of_string (opt "seconds") in
  let traced = opt "trace" = "1" in
  if not (Sys.file_exists Probe.relayd_exe) then begin
    prerr_endline ("relaybench: " ^ Probe.relayd_exe ^ " not built (use perfbench/run.sh)");
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* fewer minor collections, hence fewer stop-the-world pauses shared
     by the publisher and subscriber domains *)
  Gc.set { (Gc.get ()) with minor_heap_size = 4 * 1024 * 1024 };
  (try Unix.mkdir ".bench_out" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let env =
    { dir = Printf.sprintf ".bench_out/%s-%d" w.name (Unix.getpid ()); relays = 0 }
  in
  Unix.mkdir env.dir 0o755;
  Printf.printf "relaybench: workload %s seed %d seconds %g trace %b\n%!" w.name seed
    seconds traced;
  (* no relayd and no scratch file outlives the run, however it ends *)
  at_exit (fun () -> Probe.stop_all (); Probe.rm_rf env.dir);
  let interrupted _ = exit 130 in
  Sys.set_signal Sys.sigint (Sys.Signal_handle interrupted);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle interrupted);
  if traced then run_per_layer env w ~seed ~seconds
  else run_end_to_end env w ~seed ~seconds;
  let correct = tally.failed = 0 in
  Printf.printf "error_rate %.6f (%d failed of %d attempted)\n"
    (float_of_int tally.failed /. float_of_int (max 1 tally.attempted))
    tally.failed tally.attempted;
  let metric (name, value, unit) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct tally.attempted tally.failed
    (String.concat ", " (List.rev_map metric !metrics));
  exit (if correct then 0 else 1)
