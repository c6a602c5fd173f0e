(* Cells are atomics so updates need no lock (see the .mli for the
   contract); histogram buckets are stored non-cumulative, the last one
   being the overflow bucket, and made cumulative only when rendered. *)

type counter = int Atomic.t

type histogram = {
  bounds : int array;  (** inclusive upper bounds, strictly ascending *)
  bound_list : int list;  (** as registered, to check re-registrations *)
  buckets : int Atomic.t array;  (** [Array.length bounds + 1] cells *)
  sum : int Atomic.t;
}

(* [named]: touched through the by-name API. A counter is listed once it
   is named or non-zero, so registering a handle alone adds nothing to
   a snapshot, exactly as an untouched name never did. *)
type entry = { cell : counter; mutable named : bool }

type t = {
  mu : Mutex.t;
  counters : (string, entry) Hashtbl.t;
  hists : (string, histogram) Hashtbl.t;
}

let create () : t =
  { mu = Mutex.create (); counters = Hashtbl.create 16; hists = Hashtbl.create 8 }

let entry t name =
  match Hashtbl.find_opt t.counters name with
  | Some e -> e
  | None ->
    let e = { cell = Atomic.make 0; named = false } in
    Hashtbl.replace t.counters name e;
    e

let counter t name = Mutex.protect t.mu (fun () -> (entry t name).cell)

let add (c : counter) n = ignore (Atomic.fetch_and_add c n)

let named t name =
  Mutex.protect t.mu (fun () ->
      let e = entry t name in
      e.named <- true;
      e.cell)

let incr t ?(by = 1) name = add (named t name) by

let set t name v = Atomic.set (named t name) v

let default_bounds =
  [50; 100; 250; 500; 1000; 2500; 5000; 10000; 25000; 50000; 100000; 250000; 1000000]

let histogram t ?(bounds = default_bounds) name =
  Mutex.protect t.mu (fun () ->
      match Hashtbl.find_opt t.hists name with
      | Some h ->
        if h.bound_list == bounds || h.bound_list = bounds then h
        else invalid_arg ("Counters.histogram: different bounds for " ^ name)
      | None ->
        let rec ascending = function
          | a :: (b :: _ as rest) -> a < b && ascending rest
          | [ _ ] | [] -> true
        in
        if not (ascending bounds) then
          invalid_arg ("Counters.histogram: bounds not ascending for " ^ name);
        let bounds_a = Array.of_list bounds in
        let h =
          { bounds = bounds_a
          ; bound_list = bounds
          ; buckets = Array.init (Array.length bounds_a + 1) (fun _ -> Atomic.make 0)
          ; sum = Atomic.make 0 }
        in
        Hashtbl.replace t.hists name h;
        h)

(* first bucket whose bound is >= v; the overflow bucket past the end *)
let record h v =
  let b = h.bounds in
  let lo = ref 0 and hi = ref (Array.length b) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if v <= Array.unsafe_get b mid then hi := mid else lo := mid + 1
  done;
  Atomic.incr (Array.unsafe_get h.buckets !lo);
  add h.sum v

let observe t ?bounds name v = record (histogram t ?bounds name) v

(* A histogram is rendered as the plain counters it always was, under
   the reserved "hist." group, so it rides every existing transport
   (STATS text, [merged] across shards, [of_text], Prometheus):
   cumulative buckets "hist.<name>.le_<bound>" (zero-padded so sorted =
   numeric order) listed once a sample reached them, then
   "hist.<name>.le_inf", ".count" and ".sum" once there is any sample.
   Summing two snapshots bucket-wise is exactly histogram merge. *)
let hist_rows name h acc =
  let acc = ref acc and cum = ref 0 in
  Array.iteri
    (fun i bound ->
      cum := !cum + Atomic.get h.buckets.(i);
      if !cum > 0 then
        acc := (Printf.sprintf "hist.%s.le_%09d" name bound, !cum) :: !acc)
    h.bounds;
  let total = !cum + Atomic.get h.buckets.(Array.length h.bounds) in
  if total = 0 then !acc
  else
    (Printf.sprintf "hist.%s.le_inf" name, total)
    :: (Printf.sprintf "hist.%s.count" name, total)
    :: (Printf.sprintf "hist.%s.sum" name, Atomic.get h.sum)
    :: !acc

let remove t name = Mutex.protect t.mu (fun () -> Hashtbl.remove t.counters name)

let dump t =
  Mutex.protect t.mu (fun () ->
      Hashtbl.fold
        (fun name e acc ->
          let v = Atomic.get e.cell in
          if e.named || v <> 0 then (name, v) :: acc else acc)
        t.counters []
      |> Hashtbl.fold hist_rows t.hists)
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let get t name =
  match
    Mutex.protect t.mu (fun () -> Hashtbl.find_opt t.counters name)
  with
  | Some e -> Atomic.get e.cell
  | None -> Option.value ~default:0 (List.assoc_opt name (dump t))

let merged (ts : t list) : (string * int) list =
  let acc = Hashtbl.create 32 in
  List.iter
    (fun t ->
      List.iter
        (fun (name, v) ->
          match Hashtbl.find_opt acc name with
          | Some r -> r := !r + v
          | None -> Hashtbl.replace acc name (ref v))
        (dump t))
    ts;
  Hashtbl.fold (fun name r l -> (name, !r) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let to_text t =
  let b = Buffer.create 256 in
  List.iter
    (fun (name, v) -> Buffer.add_string b (Printf.sprintf "%s %d\n" name v))
    (dump t);
  Buffer.contents b

let of_text s =
  String.split_on_char '\n' s
  |> List.filter_map (fun line ->
         match String.index_opt line ' ' with
         | None -> None
         | Some i ->
           let name = String.sub line 0 i in
           let v = String.sub line (i + 1) (String.length line - i - 1) in
           (match int_of_string_opt (String.trim v) with
           | Some v when name <> "" -> Some (name, v)
           | _ -> None))

let metric_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
  | _ -> '_'

(* Per-subject gauges are named "<group>.<subject>.<metric>" internally
   (e.g. "stream.flights.queue_depth", "mirror.flights.lag_frames");
   Prometheus wants the subject as a label, not baked into the metric
   name, so same-metric series aggregate across streams. The first and
   last dot-separated segments are group and metric (neither ever
   contains a dot); everything between is the subject verbatim — stream
   names may themselves contain dots. *)
let split_labeled (name : string) : (string * string * string) option =
  match String.index_opt name '.' with
  | None -> None
  | Some i -> (
    match String.rindex_opt name '.' with
    | Some j when j > i ->
      Some
        ( String.sub name 0 i
        , String.sub name (i + 1) (j - i - 1)
        , String.sub name (j + 1) (String.length name - j - 1) )
    | _ -> None)

let label_escape (s : string) : string =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* "le_000000250" -> "250"; "le_inf" -> "+Inf". *)
let le_label (metric : string) : string =
  let digits = String.sub metric 3 (String.length metric - 3) in
  if digits = "inf" then "+Inf"
  else
    let n = String.length digits in
    let i = ref 0 in
    while !i < n - 1 && digits.[!i] = '0' do
      Stdlib.incr i
    done;
    String.sub digits !i (n - !i)

(* Scrape-to-scrape memory for staleness marks: the value of every
   series at the previous render, keyed by component + series name
   (one tracker may serve several components, e.g. relay + mirror
   behind one /metrics). *)
type staleness = (string, int) Hashtbl.t

let staleness () : staleness = Hashtbl.create 64

let prometheus ?staleness:(tracker : staleness option) ~component
    (snapshot : (string * int) list) : string =
  let b = Buffer.create 512 in
  List.iter
    (fun (name, v) ->
      Buffer.add_string b "omf_";
      Buffer.add_string b (String.map metric_char component);
      Buffer.add_char b '_';
      (match split_labeled name with
      | Some ("hist", hname, metric) ->
        Buffer.add_string b (String.map metric_char hname);
        if String.length metric > 3 && String.sub metric 0 3 = "le_" then (
          Buffer.add_string b "_bucket{le=\"";
          Buffer.add_string b (le_label metric);
          Buffer.add_string b "\"}")
        else (
          Buffer.add_char b '_';
          Buffer.add_string b (String.map metric_char metric))
      | Some (group, subject, metric) ->
        Buffer.add_string b (String.map metric_char group);
        Buffer.add_char b '_';
        Buffer.add_string b (String.map metric_char metric);
        Buffer.add_string b "{stream=\"";
        Buffer.add_string b (label_escape subject);
        Buffer.add_string b "\"}"
      | None -> Buffer.add_string b (String.map metric_char name));
      Buffer.add_string b (Printf.sprintf " %d\n" v))
    snapshot;
  (match tracker with
  | None -> ()
  | Some prev ->
    (* A series is stale when this scrape sees the same value as the
       previous one; series first seen this scrape count as fresh. *)
    let stale = ref 0 in
    List.iter
      (fun (name, v) ->
        let key = component ^ "\x00" ^ name in
        (match Hashtbl.find_opt prev key with
        | Some old when old = v -> Stdlib.incr stale
        | _ -> ());
        Hashtbl.replace prev key v)
      snapshot;
    Buffer.add_string b
      (Printf.sprintf
         "# staleness: %s: %d of %d series unchanged since previous scrape\n"
         component !stale (List.length snapshot));
    Buffer.add_string b
      (Printf.sprintf "omf_%s_stale %d\n" (String.map metric_char component)
         !stale));
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Push-gateway mode                                                    *)
(* ------------------------------------------------------------------ *)

(* "http://host[:port]/path" -> (host, port, path). Hand-rolled on raw
   sockets because omf_util sits below omf_httpd in the library stack —
   the HTTP client lives up there and cannot be used from here. *)
let parse_push_url (url : string) : (string * int * string, string) result =
  let prefix = "http://" in
  let pl = String.length prefix in
  if String.length url <= pl || String.sub url 0 pl <> prefix then
    Error (Printf.sprintf "push: unsupported url %S (want http://...)" url)
  else
    let rest = String.sub url pl (String.length url - pl) in
    let hostport, path =
      match String.index_opt rest '/' with
      | Some i ->
        (String.sub rest 0 i, String.sub rest i (String.length rest - i))
      | None -> (rest, "/metrics/job/omf")
    in
    match String.index_opt hostport ':' with
    | Some i -> (
      let host = String.sub hostport 0 i in
      match
        int_of_string_opt
          (String.sub hostport (i + 1) (String.length hostport - i - 1))
      with
      | Some port when host <> "" && port > 0 -> Ok (host, port, path)
      | _ -> Error (Printf.sprintf "push: malformed host:port in %S" url))
    | None ->
      if hostport = "" then Error (Printf.sprintf "push: no host in %S" url)
      else Ok (hostport, 80, path)

(** One-shot POST of Prometheus text to [url] — push-gateway mode for
    short-lived tools (relay_loadgen, the bench harness) whose
    counters would vanish before any scrape. Blocking, bounded by
    [timeout_s] on connect and I/O; all failures come back as
    [Error msg] (a metrics push must never kill the tool). *)
let push ?(timeout_s = 2.0) ~url
    (sources : (string * (string * int) list) list) : (unit, string) result =
  match parse_push_url url with
  | Error _ as e -> e
  | Ok (host, port, path) -> (
    let body =
      String.concat ""
        (List.map
           (fun (component, snapshot) -> prometheus ~component snapshot)
           sources)
    in
    match
      let addr =
        match (Unix.getaddrinfo host (string_of_int port)
                 [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ])
        with
        | { Unix.ai_addr; _ } :: _ -> ai_addr
        | [] -> failwith (Printf.sprintf "push: cannot resolve %s" host)
      in
      let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
      @@ fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout_s;
      Unix.connect fd addr;
      let req =
        Printf.sprintf
          "POST %s HTTP/1.1\r\nHost: %s:%d\r\nContent-Type: text/plain; \
           version=0.0.4\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
          path host port (String.length body) body
      in
      let rec write off =
        if off < String.length req then
          let n =
            Unix.write_substring fd req off (String.length req - off)
          in
          write (off + n)
      in
      write 0;
      let buf = Bytes.create 256 in
      let n = Unix.read fd buf 0 (Bytes.length buf) in
      let status = Bytes.sub_string buf 0 (max 0 n) in
      (* "HTTP/1.x NNN ..." — accept any 2xx *)
      if n >= 12 && String.length status >= 12 && status.[9] = '2' then ()
      else
        failwith
          (Printf.sprintf "push: %s refused: %s" url
             (match String.index_opt status '\r' with
             | Some i -> String.sub status 0 i
             | None -> status))
    with
    | () -> Ok ()
    | exception Unix.Unix_error (e, fn, _) ->
      Error (Printf.sprintf "push %s: %s: %s" url fn (Unix.error_message e))
    | exception Failure m -> Error m
    | exception e -> Error (Printexc.to_string e))
