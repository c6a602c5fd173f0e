(** The relayd process under test and the probes taken from outside
    it: its [/proc] entries, STATS over a short-lived connection, its
    metrics port, and the files in its store root. *)

module Relay = Omf_relay.Relay

type t = {
  pid : int;
  port : int;
  metrics_port : int option;
  store_root : string option;
  out : in_channel;  (** relayd's standard output *)
}

let relayd_exe = "_build/default/bin/relayd.exe"

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

(** Index of the first occurrence of [sub] in [s]. *)
let find s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

let digits_from s i =
  let j = ref i in
  while !j < String.length s && s.[!j] >= '0' && s.[!j] <= '9' do
    incr j
  done;
  int_of_string_opt (String.sub s i (!j - i))

(* the port in "<prefix>HOST:PORT" somewhere in the relayd log *)
let port_after text prefix =
  match find text prefix with
  | None -> None
  | Some at -> (
    let host_at = at + String.length prefix in
    match String.index_from_opt text host_at ':' with
    | Some c -> digits_from text (c + 1)
    | None -> None)

(** Relays started and not yet stopped. *)
let running : t list ref = ref []

(** Start relayd with [args] on an ephemeral port (and an ephemeral
    metrics port when [metrics]); returns once it has printed the
    listening lines on its standard output, a pipe read here. Its log
    (standard error) goes to [log]. *)
let spawn ~log ?store_root ~metrics args =
  let args =
    [ "--port"; "0"; "--policy"; "block" ]
    @ (match store_root with Some r -> [ "--store"; r ] | None -> [])
    @ (if metrics then [ "--metrics-port"; "0" ] else [])
    @ args
  in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process relayd_exe (Array.of_list (relayd_exe :: args)) Unix.stdin
      out_w err
  in
  Unix.close out_w;
  Unix.close err;
  let ic = Unix.in_channel_of_descr out_r in
  let fail why =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    close_in_noerr ic;
    failwith ("relayd did not start: " ^ why)
  in
  (* relayd prints these lines once bound; its final stats, printed at
     shutdown, fit in the pipe buffer *)
  let rec read port mport =
    match (port, mport) with
    | Some port, Some mp ->
      { pid; port; metrics_port = (if metrics then Some mp else None); store_root
      ; out = ic }
    | _ -> (
      match input_line ic with
      | line ->
        read
          (if port = None then port_after line "listening on " else port)
          (if mport = None then port_after line "metrics on http://" else mport)
      | exception End_of_file -> fail (read_file log))
  in
  let t = read None (if metrics then None else Some 0) in
  running := t :: !running;
  t

(** SIGINT (graceful drain), wait for exit — SIGKILL after 10 s — and
    delete the run's store root. *)
let stop t =
  (try Unix.kill t.pid Sys.sigint with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.005;
      wait ()
    | 0, _ ->
      Unix.kill t.pid Sys.sigkill;
      ignore (Unix.waitpid [] t.pid)
    | _ -> ()
  in
  wait ();
  running := List.filter (fun r -> r.pid <> t.pid) !running;
  close_in_noerr t.out;
  Option.iter rm_rf t.store_root

let stop_all () = List.iter stop !running

(** utime + stime of the relay process, in seconds. *)
let cpu_s t =
  let s = read_file (Printf.sprintf "/proc/%d/stat" t.pid) in
  let close = String.rindex s ')' in
  let f =
    Array.of_list
      (String.split_on_char ' ' (String.sub s (close + 2) (String.length s - close - 2)))
  in
  (* f.(0) is field 3 (state); utime and stime are fields 14 and 15,
     in USER_HZ = 100 ticks per second *)
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.0

(** Peak resident set ([VmHWM]) in MiB. *)
let peak_rss_mb t =
  let s = read_file (Printf.sprintf "/proc/%d/status" t.pid) in
  let kb =
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
          Scanf.sscanf (String.trim v) "%d kB" (fun k -> Some k)
        | _ -> None)
      (String.split_on_char '\n' s)
  in
  float_of_int (Option.value kb ~default:0) /. 1024.0

(** One STATS round trip on its own connection, opened and closed
    here so it never overlaps a measured window. *)
let stats t =
  let c = Relay.Client.connect ~port:t.port ~io_timeout_s:10.0 () in
  Fun.protect ~finally:(fun () -> Relay.Client.close c) (fun () -> Relay.Client.stats c)

let get stats k = Option.value ~default:0 (List.assoc_opt k stats)

(** [delta before after k] for a monotonic counter. *)
let delta before after k = get after k - get before k

let wait_for ?(timeout = 20.0) t what pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    let s = stats t in
    if pred s then s
    else if Unix.gettimeofday () > deadline then
      failwith ("timed out waiting for relay: " ^ what)
    else (Unix.sleepf 0.0005; go ())
  in
  go ()

(** Segment files and their bytes under the run's store root. *)
let disk t =
  match t.store_root with
  | None -> (0, 0)
  | Some root ->
    let rec walk dir acc =
      Array.fold_left
        (fun (n, bytes) f ->
          let p = Filename.concat dir f in
          match (Unix.stat p).Unix.st_kind with
          | Unix.S_DIR -> walk p (n, bytes)
          | _ when Filename.check_suffix f ".seg" ->
            (n + 1, bytes + (Unix.stat p).Unix.st_size)
          | _ -> (n, bytes))
        acc (Sys.readdir dir)
    in
    if Sys.file_exists root then walk root (0, 0) else (0, 0)

(** The relay's [/trace/summary] JSON (doc/TRACE.md). *)
let trace_summary t =
  match t.metrics_port with
  | None -> ""
  | Some port ->
    Omf_httpd.Http.get ~host:"127.0.0.1" ~port ~path:"/trace/summary" ~timeout_s:10.0 ()

(** [summary_us json stage key] reads one number from the summary's
    [{"stage":{"key":N,...},...}] shape; 0 when absent. *)
let summary_us json stage key =
  match find json (Printf.sprintf "\"%s\":{" stage) with
  | None -> 0.0
  | Some at -> (
    let close = String.index_from json at '}' in
    let obj = String.sub json at (close - at) in
    match find obj (Printf.sprintf "\"%s\":" key) with
    | None -> 0.0
    | Some k ->
      Option.fold ~none:0.0 ~some:float_of_int
        (digits_from obj (k + String.length key + 3)))
