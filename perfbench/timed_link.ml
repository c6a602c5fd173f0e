(** A timing wrapper around a client's {!Omf_transport.Link.t}: the
    transport layer as the load process sees it. It records every
    call's duration and keeps the first [span_cap] calls as spans, in
    memory, for one Chrome trace file written when the run ends. *)

module Link = Omf_transport.Link

type span = { name : string; tid : int; start_ns : int; dur_ns : int; seq : int }

type t = {
  durs_us : Stat.samples;  (** one per call *)
  mutable busy_ns : int;  (** summed duration of every call *)
  spans : span Queue.t;
  span_cap : int;
  tid : int;
  mutable seq : int;  (** event the next span belongs to *)
}

let create ?(span_cap = 4096) ~tid () =
  { durs_us = Stat.samples (); busy_ns = 0; spans = Queue.create (); span_cap; tid
  ; seq = -1 }

let span t name start_ns dur_ns =
  if Queue.length t.spans < t.span_cap then
    Queue.add { name; tid = t.tid; start_ns; dur_ns; seq = t.seq } t.spans

let note t name start_ns =
  let dur = Stat.now_ns () - start_ns in
  Stat.add t.durs_us (float_of_int dur /. 1000.0);
  t.busy_ns <- t.busy_ns + dur;
  span t name start_ns dur

let wrap t (l : Link.t) : Link.t =
  { Link.send =
      (fun b ->
        let t0 = Stat.now_ns () in
        l.Link.send b;
        note t "link.send" t0)
  ; recv =
      (fun () ->
        let t0 = Stat.now_ns () in
        let r = l.Link.recv () in
        note t "link.recv" t0;
        r)
  ; close = l.Link.close }

let calls t = t.durs_us.Stat.n

(** Forget everything recorded so far (the set-up's calls). *)
let reset t =
  t.durs_us.Stat.n <- 0;
  t.busy_ns <- 0;
  Queue.clear t.spans

(** Write the spans of [links] as one Chrome trace JSON array. *)
let write_chrome path links =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "[";
      let first = ref true in
      List.iter
        (fun t ->
          Queue.iter
            (fun s ->
              if not !first then output_string oc ",\n";
              first := false;
              Printf.fprintf oc
                "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"seq\":%d}}"
                s.name s.tid
                (float_of_int s.start_ns /. 1000.0)
                (float_of_int s.dur_ns /. 1000.0)
                s.seq)
            t.spans)
        links;
      output_string oc "]\n")
