(** Layer microbenchmarks on a workload's own frames: the reactor's
    frame codec, counters with the relay's key shapes, the LZ codec
    (per frame and per sealed segment), and [Store.append] under the
    workload's store configuration. *)

module Frame = Omf_reactor.Frame
module Counters = Omf_util.Counters
module Compress = Omf_compress.Compress
module Store = Omf_store.Store

(** The relay's segment size for store-backed workloads: relayd's
    [--store-segment-mb] floor, so each run seals a fixed number. *)
let segment_bytes = 1024 * 1024

type t = {
  frame_encode_ns : float;
  frame_decode_ns : float;
  incr_ns : float;
  observe_ns : float;
  lz_ns_per_kib : float;
  unlz_ns_per_kib : float;
  seal_ms : float;
  store_append_ns : float;
}

(** Enough calls of [f] to fill about [target_ns] per batch. *)
let calibrate ~target_ns f =
  let t0 = Stat.now_ns () in
  f 0;
  let one = max 1 (Stat.now_ns () - t0) in
  max 16 (target_ns / one)

let time ?(target_ns = 20_000_000) f =
  Stat.per_call ~iters:(calibrate ~target_ns f) f

let put_u32 b off v =
  Bytes.set_int32_be b off (Int32.of_int (v land 0xffff_ffff))

(** A segment's record region as the store lays it out:
    [u32 len | u32 crc32 | body] per stored message frame. *)
let segment_image frames =
  let buf = Buffer.create segment_bytes in
  let rec fill i =
    if Buffer.length buf < segment_bytes && i < Array.length frames then begin
      let body = frames.(i) in
      let hdr = Bytes.create 8 in
      put_u32 hdr 0 (Bytes.length body);
      put_u32 hdr 4 (Omf_util.Crc32.digest body ~pos:0 ~len:(Bytes.length body));
      Buffer.add_bytes buf hdr;
      Buffer.add_bytes buf body;
      fill (i + 1)
    end
  in
  fill 0;
  Buffer.to_bytes buf

(** [sample] are message frames as the relay receives them; [segment]
    are enough more of them to fill one segment. *)
let run ~dir ~stream ~durable ~(sample : Bytes.t array) ~segment =
  let n = Array.length sample in
  let frame_encode_ns = time (fun i -> ignore (Frame.encode sample.(i mod n))) in
  let stream_bytes = Bytes.concat Bytes.empty (Array.to_list (Array.map Frame.encode sample)) in
  let chunk = 65_536 in
  let decode_all () =
    let d = Frame.Decoder.create () in
    let len = Bytes.length stream_bytes in
    let rec feed off =
      if off < len then begin
        Frame.Decoder.feed d stream_bytes off (min chunk (len - off));
        let rec pop () = match Frame.Decoder.pop d with Some _ -> pop () | None -> () in
        pop ();
        feed (off + chunk)
      end
    in
    feed 0
  in
  let frame_decode_ns = time (fun _ -> decode_all ()) /. float_of_int n in
  let counters = Counters.create () in
  let comp_key () = Printf.sprintf "comp.%s.raw_bytes" stream in
  let incr_ns =
    time (fun i ->
        match i mod 3 with
        | 0 -> Counters.incr counters "frames_in"
        | 1 -> Counters.incr counters ~by:130 "bytes_out"
        | _ -> Counters.incr counters ~by:130 (comp_key ()))
  in
  let observe_ns =
    time (fun i -> Counters.observe counters "publish_admit_us" (i land 1023))
  in
  let scratch = Compress.scratch () in
  let total_kib =
    float_of_int (Array.fold_left (fun a b -> a + Bytes.length b) 0 sample) /. 1024.0
  in
  let per_kib ns_per_frame = ns_per_frame *. float_of_int n /. total_kib in
  let lz_ns_per_kib =
    per_kib (time (fun i -> ignore (Compress.compress ~scratch sample.(i mod n))))
  in
  let blocks = Array.map (Compress.compress ~scratch) sample in
  let unlz_ns_per_kib =
    per_kib (time (fun i -> ignore (Compress.decompress blocks.(i mod n))))
  in
  let image = segment_image segment in
  (* the store seals without a scratch workspace: one block per segment *)
  let seal_ms =
    Stat.per_call ~batches:3 ~iters:1 (fun _ -> ignore (Compress.compress image)) /. 1e6
  in
  let root = Filename.concat dir "micro-store" in
  let cfg =
    { (Store.default_config ~root) with segment_bytes; compress = durable }
  in
  let st = Store.open_stream cfg stream in
  (* a batch is one segment's worth of appends, so each includes its
     share of sealing (and, when durable, of compressing the seal) *)
  let per_segment = Array.length segment in
  let store_append_ns =
    Stat.per_call ~iters:per_segment (fun i -> ignore (Store.append st segment.(i)))
  in
  Store.close st;
  Probe.rm_rf root;
  { frame_encode_ns; frame_decode_ns; incr_ns; observe_ns; lz_ns_per_kib
  ; unlz_ns_per_kib; seal_ms; store_append_ns }
