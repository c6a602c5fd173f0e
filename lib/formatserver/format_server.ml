(** A format server: the system-wide registry of format descriptors that
    production PBIO deployments used instead of (or alongside)
    per-connection negotiation.

    Senders register a format descriptor once and receive a *global id*;
    message headers then carry that id, and any receiver anywhere can
    resolve it with one lookup (cached thereafter). This trades the
    per-connection descriptor frame for a once-per-process round trip —
    and it is precisely the "configuration server" role the paper's
    fault-tolerance discussion assigns to compiled-in formats when the
    network is down.

    Protocol (length-prefixed frames over TCP, via {!Omf_transport.Tcp}):
    - ['R' blob]  register a descriptor; reply ['I' id32] (idempotent:
      re-registering the same blob returns the same id)
    - ['G' id32]  fetch a descriptor; reply ['D' blob] or ['N']
    - ['F' hex]   fetch by SHA-256 fingerprint of the blob (as carried
      in relay stream advertisements); reply ['I' id32 blob] or ['N'] *)

let log = Logs.Src.create "omf.formatserver" ~doc:"format server"

module Log = (val Logs.src_log log)

exception Protocol_error of string

let proto_error fmt = Printf.ksprintf (fun s -> raise (Protocol_error s)) fmt

let u32_to_bytes v =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((v lsr 24) land 0xFF));
  Bytes.set b 1 (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set b 2 (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b 3 (Char.chr (v land 0xFF));
  b

let u32_of_bytes b off =
  let c i = Char.code (Bytes.get b (off + i)) in
  (c 0 lsl 24) lor (c 1 lsl 16) lor (c 2 lsl 8) lor c 3

(* ------------------------------------------------------------------ *)
(* Server                                                               *)
(* ------------------------------------------------------------------ *)

module Server = struct
  module Reactor = Omf_reactor.Reactor
  module Conn = Omf_reactor.Conn
  module Counters = Omf_util.Counters

  type t = {
    socket : Unix.file_descr;
    port : int;
    mutex : Mutex.t;  (** guards the registry: {!register}/{!lookup}/{!size}
                          are also called directly by embedding threads *)
    by_blob : (string, int) Hashtbl.t;
    by_id : (int, string) Hashtbl.t;
    by_fingerprint : (string, int) Hashtbl.t;
        (** hex SHA-256 of the blob -> id: receivers that learned a
            fingerprint from a relay advertisement resolve it without
            holding the blob *)
    mutable next_id : int;
    counters : Counters.t;
    loop : Reactor.t;
    mutable loop_thread : Thread.t;
    conns : (int, Conn.t) Hashtbl.t;  (** loop-thread only *)
    mutable next_conn : int;
    mutable metrics : Omf_httpd.Http.server option;
    mutable stopped : bool;
  }

  let register t (blob : string) : int =
    Mutex.protect t.mutex @@ fun () ->
    match Hashtbl.find_opt t.by_blob blob with
    | Some id ->
      Counters.incr t.counters "registration_hits";
      id
    | None ->
      (* reject blobs that do not decode: the server never serves junk *)
      (try ignore (Omf_pbio.Format_codec.decode blob)
       with Omf_pbio.Format_codec.Codec_error m ->
         Counters.incr t.counters "registration_rejects";
         proto_error "refusing malformed descriptor: %s" m);
      let id = t.next_id in
      t.next_id <- id + 1;
      Hashtbl.replace t.by_blob blob id;
      Hashtbl.replace t.by_id id blob;
      Hashtbl.replace t.by_fingerprint
        (Omf_util.Sha256.hex (Omf_util.Sha256.digest blob))
        id;
      Counters.incr t.counters "registrations";
      Log.info (fun m -> m "registered format id %d (%d bytes)" id (String.length blob));
      id

  let lookup t (id : int) : string option =
    let r = Mutex.protect t.mutex (fun () -> Hashtbl.find_opt t.by_id id) in
    Counters.incr t.counters
      (match r with Some _ -> "lookup_hits" | None -> "lookup_misses");
    r

  let lookup_fingerprint t (fp : string) : (int * string) option =
    let r =
      Mutex.protect t.mutex (fun () ->
          match Hashtbl.find_opt t.by_fingerprint fp with
          | None -> None
          | Some id ->
            Option.map (fun blob -> (id, blob)) (Hashtbl.find_opt t.by_id id))
    in
    Counters.incr t.counters
      (match r with
      | Some _ -> "fingerprint_hits"
      | None -> "fingerprint_misses");
    r

  (** One registry request, one reply frame — runs on the reactor
      thread; the registry mutex is held only across the table access. *)
  let handle_frame t (conn : Conn.t) (frame : Bytes.t) =
    Counters.incr t.counters "frames_in";
    if Bytes.length frame < 1 then Conn.doom conn "empty frame"
    else
      match Bytes.get frame 0 with
      | 'R' -> (
        let blob = Bytes.sub_string frame 1 (Bytes.length frame - 1) in
        match register t blob with
        | id -> Conn.send conn (Bytes.cat (Bytes.of_string "I") (u32_to_bytes id))
        | exception Protocol_error _ -> Conn.send conn (Bytes.of_string "N"))
      | 'G' when Bytes.length frame >= 5 -> (
        let id = u32_of_bytes frame 1 in
        match lookup t id with
        | Some blob ->
          Conn.send conn (Bytes.cat (Bytes.of_string "D") (Bytes.of_string blob))
        | None -> Conn.send conn (Bytes.of_string "N"))
      | 'G' -> Conn.doom conn "short lookup frame"
      | 'F' -> (
        let fp = Bytes.sub_string frame 1 (Bytes.length frame - 1) in
        match lookup_fingerprint t fp with
        | Some (id, blob) ->
          Conn.send conn
            (Bytes.cat
               (Bytes.cat (Bytes.of_string "I") (u32_to_bytes id))
               (Bytes.of_string blob))
        | None -> Conn.send conn (Bytes.of_string "N"))
      | k -> Conn.doom conn (Printf.sprintf "unknown request kind %C" k)

  let accept_connection t fd =
    let id = t.next_conn in
    t.next_conn <- id + 1;
    Counters.incr t.counters "connections";
    let conn =
      Conn.attach t.loop fd
        ~on_frame:(fun conn frame -> handle_frame t conn frame)
        ~on_close:(fun _ _ -> Hashtbl.remove t.conns id)
        ()
    in
    Hashtbl.replace t.conns id conn

  (** [start ?host ~port ()] runs a format server on its own reactor
      thread (ephemeral port with [~port:0]); stop it with {!shutdown}.
      [?metrics_port] additionally mounts a Prometheus [GET /metrics]
      endpoint rendering the server's counters. *)
  let start ?(host = "127.0.0.1") ~port ?metrics_port () : t =
    let socket, bound_port = Omf_transport.Tcp.listener ~host ~port () in
    Unix.set_nonblock socket;
    let t =
      { socket; port = bound_port; mutex = Mutex.create ()
      ; by_blob = Hashtbl.create 32; by_id = Hashtbl.create 32
      ; by_fingerprint = Hashtbl.create 32; next_id = 1
      ; counters = Counters.create (); loop = Reactor.create ()
      ; loop_thread = Thread.self (); conns = Hashtbl.create 16
      ; next_conn = 0; metrics = None; stopped = false }
    in
    let rec accept_all () =
      match Unix.accept ~cloexec:true socket with
      | fd, _ ->
        accept_connection t fd;
        accept_all ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> ()
    in
    ignore
      (Reactor.register t.loop socket ~on_readable:accept_all
         ~on_writable:ignore);
    t.loop_thread <- Thread.create Reactor.run t.loop;
    (match metrics_port with
    | None -> ()
    | Some p ->
      t.metrics <-
        Some
          (Omf_httpd.Http.serve_metrics ~host ~port:p
             [ ("formatserver", fun () -> Counters.dump t.counters) ]));
    t

  (** The actually bound metrics port, if metrics were requested. *)
  let metrics_port t = Option.map Omf_httpd.Http.port t.metrics

  let stats t = Counters.dump t.counters

  (** Stop accepting, close client connections, join the loop thread
      (and the metrics endpoint, if any). Idempotent. *)
  let shutdown t =
    if not t.stopped then begin
      t.stopped <- true;
      Reactor.inject t.loop (fun () ->
          (try Unix.shutdown t.socket Unix.SHUTDOWN_ALL
           with Unix.Unix_error _ -> ());
          let live = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
          List.iter (fun c -> Conn.doom c "server shutdown") live;
          Reactor.stop t.loop);
      Thread.join t.loop_thread;
      (try Unix.close t.socket with Unix.Unix_error _ -> ());
      Reactor.dispose t.loop;
      Option.iter Omf_httpd.Http.shutdown t.metrics
    end

  (** Number of distinct formats registered so far. *)
  let size t = Mutex.protect t.mutex (fun () -> Hashtbl.length t.by_id)
end

(* ------------------------------------------------------------------ *)
(* Client                                                               *)
(* ------------------------------------------------------------------ *)

module Client = struct
  type t = {
    link : Omf_transport.Link.t;
    mutex : Mutex.t;
    id_cache : (string, int) Hashtbl.t;  (** blob -> global id *)
    blob_cache : (int, string) Hashtbl.t;
  }

  exception Server_unavailable of string

  let connect ?(host = "127.0.0.1") ~port () : t =
    match Omf_transport.Tcp.connect ~host ~port () with
    | link ->
      { link; mutex = Mutex.create (); id_cache = Hashtbl.create 8
      ; blob_cache = Hashtbl.create 8 }
    | exception Omf_transport.Tcp.Tcp_error m -> raise (Server_unavailable m)

  let rpc t frame =
    Mutex.protect t.mutex (fun () ->
        Omf_transport.Link.send t.link frame;
        match Omf_transport.Link.recv t.link with
        | Some reply -> reply
        | None -> raise (Server_unavailable "connection closed"))

  (** [register t fmt] obtains the global id for [fmt], registering its
      descriptor if the server has not seen it before. *)
  let register (t : t) (fmt : Omf_pbio.Format.t) : int =
    let blob = Omf_pbio.Format_codec.encode fmt in
    match Hashtbl.find_opt t.id_cache blob with
    | Some id -> id
    | None ->
      let reply = rpc t (Bytes.cat (Bytes.of_string "R") (Bytes.of_string blob)) in
      if Bytes.length reply = 5 && Bytes.get reply 0 = 'I' then begin
        let id = u32_of_bytes reply 1 in
        Hashtbl.replace t.id_cache blob id;
        Hashtbl.replace t.blob_cache id blob;
        id
      end
      else proto_error "register: unexpected reply"

  (** [fetch t id] resolves a global id to a descriptor blob ([None] if
      the server does not know it). Suitable as the [?resolve] callback
      of {!Omf_pbio.Pbio.Receiver.create}. *)
  let fetch (t : t) (id : int) : string option =
    match Hashtbl.find_opt t.blob_cache id with
    | Some blob -> Some blob
    | None -> (
      match rpc t (Bytes.cat (Bytes.of_string "G") (u32_to_bytes id)) with
      | reply when Bytes.length reply >= 1 && Bytes.get reply 0 = 'D' ->
        let blob = Bytes.sub_string reply 1 (Bytes.length reply - 1) in
        Hashtbl.replace t.blob_cache id blob;
        Some blob
      | reply when Bytes.length reply >= 1 && Bytes.get reply 0 = 'N' -> None
      | _ -> proto_error "fetch: unexpected reply"
      | exception Server_unavailable _ -> None)

  (** [fetch_by_fingerprint t fp] resolves a blob fingerprint (learned
      from a relay stream advertisement) to [(global id, blob)] without
      ever holding the blob — the content-addressed path that lets a
      receiver bind its conversion plan before any descriptor frame
      arrives. Cached like {!fetch}. *)
  let fetch_by_fingerprint (t : t) (fp : string) : (int * string) option =
    match
      rpc t (Bytes.cat (Bytes.of_string "F") (Bytes.of_string fp))
    with
    | reply when Bytes.length reply >= 5 && Bytes.get reply 0 = 'I' ->
      let id = u32_of_bytes reply 1 in
      let blob = Bytes.sub_string reply 5 (Bytes.length reply - 5) in
      Hashtbl.replace t.blob_cache id blob;
      Hashtbl.replace t.id_cache blob id;
      Some (id, blob)
    | reply when Bytes.length reply >= 1 && Bytes.get reply 0 = 'N' -> None
    | _ -> proto_error "fetch_by_fingerprint: unexpected reply"
    | exception Server_unavailable _ -> None

  (** A resolve callback that degrades gracefully when the server dies:
      failed lookups return [None] and the receiver reports
      [Unknown_format] rather than crashing. *)
  let resolver (t : t) : int -> string option =
    fun id -> try fetch t id with Protocol_error _ -> None

  let close (t : t) = Omf_transport.Link.close t.link
end
