(** Tests for the networked event relay: frame reassembly from partial
    reads (property-tested), subscribe/replay and credential scoping
    over real TCP, zero-loss fan-out to 64 concurrent subscribers under
    the [Block] policy, slow-consumer shedding and eviction, and
    graceful drain-and-shutdown. *)

open Omf_machine
open Omf_pbio.Pbio
open Omf_transport
module Relay = Omf_relay.Relay
module Broker = Omf_backbone.Broker
module Fx = Omf_fixtures.Paper_structs
module Catalog = Omf_xml2wire.Catalog
module X2W = Omf_xml2wire.Xml2wire

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Frame codec                                                          *)
(* ------------------------------------------------------------------ *)

(* random frame sequences, split at random byte boundaries (the partial
   reads a non-blocking socket delivers), must round-trip exactly *)
let prop_frame_reassembly =
  QCheck.Test.make ~name:"frame reassembly across arbitrary splits"
    ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 16) (string_of_size Gen.(0 -- 400)))
        int)
    (fun (frames, seed) ->
      let wire = Buffer.create 1024 in
      List.iter
        (fun f -> Buffer.add_bytes wire (Frame.encode (Bytes.of_string f)))
        frames;
      let wire = Buffer.to_bytes wire in
      let rng = Omf_util.Prng.create ~seed:(Int64.of_int seed) () in
      let dec = Frame.Decoder.create () in
      let out = ref [] in
      let off = ref 0 in
      while !off < Bytes.length wire do
        let n = min (1 + Omf_util.Prng.int rng 7) (Bytes.length wire - !off) in
        Frame.Decoder.feed dec wire !off n;
        off := !off + n;
        let rec drain () =
          match Frame.Decoder.pop dec with
          | Some f -> out := Bytes.to_string f :: !out; drain ()
          | None -> ()
        in
        drain ()
      done;
      List.rev !out = frames && Frame.Decoder.pending_bytes dec = 0)

let test_frame_max_length () =
  let dec = Frame.Decoder.create ~max_frame:100 () in
  let b = Bytes.create 4 in
  Frame.write_header b 0 1000;
  Frame.Decoder.feed dec b 0 4;
  try
    ignore (Frame.Decoder.pop dec);
    Alcotest.fail "expected Frame_error"
  with Frame.Frame_error _ -> ()

(* sealed (HMAC) frames: a sequence survives the frame codec across
   arbitrary read boundaries and verifies in order; flipping any single
   bit of any sealed frame — header nonce, tag, or payload — is
   rejected, and the receive nonce does not advance past the damage *)
let prop_macframe_roundtrip_and_tamper =
  QCheck.Test.make ~name:"sealed frames round-trip; any bit flip rejected"
    ~count:300
    QCheck.(
      pair (list_of_size Gen.(1 -- 8) (string_of_size Gen.(0 -- 300))) int)
    (fun (payloads, seed) ->
      let key = "a shared capture-point secret" in
      let rng = Omf_util.Prng.create ~seed:(Int64.of_int seed) () in
      let tx = Macframe.state ~key in
      let sealed =
        List.map (fun p -> Macframe.seal_next tx (Bytes.of_string p)) payloads
      in
      (* wire = framed sealed bodies, fed to the decoder in ragged chunks *)
      let wire = Buffer.create 1024 in
      List.iter (fun f -> Buffer.add_bytes wire (Frame.encode f)) sealed;
      let wire = Buffer.to_bytes wire in
      let dec = Frame.Decoder.create () in
      let rx = Macframe.state ~key in
      let out = ref [] in
      let off = ref 0 in
      while !off < Bytes.length wire do
        let n = min (1 + Omf_util.Prng.int rng 9) (Bytes.length wire - !off) in
        Frame.Decoder.feed dec wire !off n;
        off := !off + n;
        let rec drain () =
          match Frame.Decoder.pop dec with
          | Some f ->
            out := Bytes.to_string (Macframe.open_next rx f) :: !out;
            drain ()
          | None -> ()
        in
        drain ()
      done;
      let roundtrips = List.rev !out = payloads in
      (* tamper: pick a frame, flip one random bit anywhere in it *)
      let victim_ix = Omf_util.Prng.int rng (List.length sealed) in
      let rx2 = Macframe.state ~key in
      let rejected = ref false in
      List.iteri
        (fun i f ->
          if i < victim_ix then ignore (Macframe.open_next rx2 f)
          else if i = victim_ix then begin
            let f = Bytes.copy f in
            let byte = Omf_util.Prng.int rng (Bytes.length f) in
            let bit = Omf_util.Prng.int rng 8 in
            Bytes.set f byte
              (Char.chr (Char.code (Bytes.get f byte) lxor (1 lsl bit)));
            (match Macframe.open_next rx2 f with
            | _ -> ()
            | exception Macframe.Auth_error _ -> rejected := true);
            (* the chain stays broken: even the genuine next frame is
               now refused (no silent deletion of the damaged one) *)
            match List.nth_opt sealed (i + 1) with
            | None -> ()
            | Some next -> (
              match Macframe.open_next rx2 next with
              | _ -> rejected := false
              | exception Macframe.Auth_error _ -> ())
          end)
        sealed;
      roundtrips && !rejected)

module Slice = Omf_util.Slice

(* the zero-copy slice codecs must be byte-identical to the copying
   ones: a wire message assembled from arbitrary body splits (empty
   slices and an empty body included) concatenates to [Frame.encode]
   of the whole body, seals identically under the same nonce chain,
   and the stream round-trips through reassembly across ragged reads —
   including at exactly the decoder's max-frame limit *)
let prop_slice_codec_equivalence =
  QCheck.Test.make ~name:"slice codecs byte-identical to Bytes codecs"
    ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 8) (string_of_size Gen.(0 -- 300)))
        int)
    (fun (pieces, seed) ->
      let rng = Omf_util.Prng.create ~seed:(Int64.of_int seed) () in
      let body = Bytes.of_string (String.concat "" pieces) in
      let slices = List.map Slice.of_string pieces in
      let wire = Frame.wire slices in
      let flat = Slice.concat wire in
      let encoded_identical = Bytes.equal flat (Frame.encode body) in
      (* sealing an iovec payload = sealing its concatenation *)
      let key = "a shared capture-point secret" in
      let tx_ref = Macframe.state ~key and tx_io = Macframe.state ~key in
      let sealed_identical =
        Bytes.equal (Macframe.seal_next tx_ref body)
          (Macframe.seal_next_slices tx_io slices)
        (* a second frame: the send nonce advanced in lockstep *)
        && Bytes.equal (Macframe.seal_next tx_ref body)
             (Macframe.seal_next_slices tx_io slices)
      in
      (* the slice-built wire reassembles to the body across arbitrary
         read boundaries, with max_frame set exactly to the body size *)
      let dec = Frame.Decoder.create ~max_frame:(Bytes.length body) () in
      let out = ref None in
      let off = ref 0 in
      while !off < Bytes.length flat do
        let n = min (1 + Omf_util.Prng.int rng 7) (Bytes.length flat - !off) in
        Frame.Decoder.feed dec flat !off n;
        off := !off + n;
        match Frame.Decoder.pop dec with
        | Some f -> out := Some f
        | None -> ()
      done;
      (match Frame.Decoder.pop dec with Some f -> out := Some f | None -> ());
      let roundtrips =
        match !out with Some f -> Bytes.equal f body | None -> false
      in
      encoded_identical && sealed_identical && roundtrips)

(* ------------------------------------------------------------------ *)
(* Helpers                                                              *)
(* ------------------------------------------------------------------ *)

let event ?(pad = 0) seq =
  match Fx.value_a with
  | Value.Record fields ->
    Value.Record
      (List.map
         (fun (k, v) ->
           match k with
           | "fltNum" -> (k, Value.Int (Int64.of_int seq))
           | "equip" when pad > 0 -> (k, Value.String (String.make pad 'x'))
           | _ -> (k, v))
         fields)
  | _ -> assert false

let seq_of v =
  match Value.field_exn v "fltNum" with
  | Value.Int i -> Int64.to_int i
  | _ -> -1

(* an advertised stream plus a ready publisher endpoint *)
let make_publisher ~port ~stream =
  let client = Relay.Client.connect ~port () in
  Relay.Client.advertise client ~stream ~schema:Fx.schema_a;
  let link = Relay.Client.publish client ~stream in
  let catalog = Catalog.create Abi.x86_64 in
  ignore (X2W.register_schema catalog Fx.schema_a);
  let fmt = Option.get (Catalog.find_format catalog "ASDOffEvent") in
  let sender = Endpoint.Sender.create link (Memory.create Abi.x86_64) in
  (client, sender, fmt)

let publish sender fmt ?pad seq =
  Endpoint.Sender.send_value sender fmt (event ?pad seq)

(* poll the relay's stats (via a fresh control connection) until [key]
   reaches [target] — makes async milestones deterministic *)
let wait_stat ~port key target =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    let c = Relay.Client.connect ~port () in
    let v = Option.value ~default:0 (List.assoc_opt key (Relay.Client.stats c)) in
    Relay.Client.close c;
    if v >= target then v
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timeout waiting for %s >= %d (at %d)" key target v
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Pub/sub over real TCP                                                *)
(* ------------------------------------------------------------------ *)

let test_pubsub_and_descriptor_replay () =
  let h = Relay.start () in
  let port = Relay.port (Relay.relay h) in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let pub, sender, fmt = make_publisher ~port ~stream:"flights" in
  (* publish before anyone subscribes: the descriptor frame is cached *)
  publish sender fmt 0;
  ignore (wait_stat ~port "events_relayed" 1);
  let late = Relay.attach_consumer ~port ~stream:"flights" Abi.sparc_32 in
  publish sender fmt 1;
  (* the late joiner missed event 0 but decodes event 1, because the
     relay replayed the cached format descriptor on subscribe *)
  (match Relay.recv late with
  | Some (f, v) ->
    check Alcotest.string "format" "ASDOffEvent" f.Format.name;
    check int "replayed descriptor decodes the live event" 1 (seq_of v)
  | None -> Alcotest.fail "no event");
  Relay.close_consumer late;
  Relay.Client.close pub

let test_scoped_credentials_over_tcp () =
  let h = Relay.start () in
  let port = Relay.port (Relay.relay h) in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let pub, sender, fmt = make_publisher ~port ~stream:"flights" in
  Broker.set_scope (Relay.broker (Relay.relay h)) ~stream:"flights"
    (fun creds ->
      match List.assoc_opt "role" creds with
      | Some "display" | None -> None
      | Some _ -> Some [ "fltNum"; "org"; "dest" ]);
  let display =
    Relay.attach_consumer ~port ~creds:[ ("role", "display") ]
      ~stream:"flights" Abi.sparc_32
  in
  let handheld =
    Relay.attach_consumer ~port ~creds:[ ("role", "handheld") ]
      ~stream:"flights" Abi.arm_32
  in
  publish sender fmt 7;
  let _, full = Option.get (Relay.recv display) in
  let _, scoped = Option.get (Relay.recv handheld) in
  check bool "display sees cntrID" true (Value.field full "cntrID" <> None);
  check bool "handheld does not see cntrID" true
    (Value.field scoped "cntrID" = None);
  check int "handheld sees the sequence" 7 (seq_of scoped);
  (* the scoped schema the relay served is itself reduced *)
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check bool "scoped schema omits cntrID" false
    (contains handheld.Relay.schema "cntrID");
  Relay.close_consumer display;
  Relay.close_consumer handheld;
  Relay.Client.close pub

let test_unknown_stream_and_role_errors () =
  let h = Relay.start () in
  let port = Relay.port (Relay.relay h) in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  (try
     ignore (Relay.attach_consumer ~port ~stream:"nope" Abi.x86_64);
     Alcotest.fail "expected Client.Error"
   with Relay.Client.Error _ -> ());
  let pub, _sender, _fmt = make_publisher ~port ~stream:"flights" in
  (* a publisher connection cannot also subscribe *)
  (try
     ignore (Relay.Client.subscribe pub ~stream:"flights");
     Alcotest.fail "expected Client.Error"
   with Relay.Client.Error _ -> ());
  Relay.Client.close pub

let test_stats_protocol () =
  let h = Relay.start () in
  let port = Relay.port (Relay.relay h) in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let pub, sender, fmt = make_publisher ~port ~stream:"flights" in
  let consumer = Relay.attach_consumer ~port ~stream:"flights" Abi.x86_64 in
  publish sender fmt 0;
  ignore (Relay.recv consumer);
  let c = Relay.Client.connect ~port () in
  let stats = Relay.Client.stats c in
  let get k = Option.value ~default:0 (List.assoc_opt k stats) in
  check bool "connections counted" true (get "connections" >= 3);
  check int "events relayed" 1 (get "events_relayed");
  check int "stream gauge: published (descriptor + event)" 2
    (get "stream.flights.published");
  check int "stream gauge: subscribers" 1 (get "stream.flights.subscribers");
  Relay.Client.close c;
  Relay.close_consumer consumer;
  Relay.Client.close pub

(* The relay's per-frame counters are handles resolved once per shard,
   and a connection's per-stream compression handles are taken with its
   role, on its final shard. A 2-shard cluster with a plain and a comp=lz
   subscriber, one of which lands on the shard that does not own the
   stream and migrates, must still report STATS that add up: one
   admission sample per relayed event, one frames_out per delivery, and
   per-stream compression bytes equal to what the compressed
   subscriber's own wrapper saw. *)
let test_cluster_counters_wiring () =
  let cl = Relay.Cluster.start ~shards:2 () in
  Fun.protect ~finally:(fun () -> Relay.Cluster.stop cl) @@ fun () ->
  let port = Relay.Cluster.port cl in
  (* round-robin accepts: the publisher pins the stream to its shard,
     so of the next two connections one lands on the other shard *)
  let pub, sender, fmt = make_publisher ~port ~stream:"flights" in
  let zc = Relay.Client.connect ~port ~compress:true () in
  check bool "comp=lz granted" true (Relay.Client.compressed zc);
  let _, zlink = Relay.Client.subscribe zc ~stream:"flights" in
  let raw0, wire0 = Option.get (Relay.Client.comp_totals zc) in
  let pc = Relay.Client.connect ~port () in
  let _, plink = Relay.Client.subscribe pc ~stream:"flights" in
  let n = 50 in
  for seq = 0 to n - 1 do
    publish sender fmt ~pad:(seq * 7) seq
  done;
  (* every frame a subscriber gets is one delivery: descriptors too *)
  let drain link =
    let rec go frames msgs =
      if msgs = n then frames
      else
        match Link.recv link with
        | Some f ->
          go (frames + 1)
            (if Char.equal (Bytes.get f 0) Endpoint.frame_message then msgs + 1
             else msgs)
        | None -> Alcotest.fail "subscriber closed early"
    in
    go 0 0
  in
  let deliveries = drain zlink + drain plink in
  let raw1, wire1 = Option.get (Relay.Client.comp_totals zc) in
  let admin = Relay.Client.connect ~port () in
  let stats = Relay.Client.stats admin in
  let get k = Option.value ~default:0 (List.assoc_opt k stats) in
  check bool "a subscriber migrated" true (get "shard_handoffs" >= 1);
  check int "events relayed" n (get "events_relayed");
  check int "one admission sample per event" (get "events_relayed")
    (get "hist.publish_admit_us.count");
  check int "frames_out = deliveries" deliveries (get "frames_out");
  check int "comp raw bytes = subscriber's" (raw1 - raw0)
    (get "comp.flights.raw_bytes");
  check int "comp wire bytes = subscriber's" (wire1 - wire0)
    (get "comp.flights.wire_bytes");
  List.iter Relay.Client.close [ admin; pc; zc; pub ]

(* ------------------------------------------------------------------ *)
(* comp=lz block forwarding                                             *)
(* ------------------------------------------------------------------ *)

module Compress = Omf_compress.Compress

let bytes_testable =
  Alcotest.testable
    (fun fmt b -> Fmt.pf fmt "%d bytes" (Bytes.length b))
    Bytes.equal

(* A comp=lz connection driven by hand: HELLO in the clear, then every
   frame on the returned link is one LZ block (sealed under [auth]), so
   a test can send blocks the client never builds and see the blocks
   the relay sends. *)
let block_conn ~port ?auth () =
  let link = Tcp.connect ~port ~io_timeout_s:10.0 () in
  let hello =
    "hcomp=lz"
    ^ match auth with None -> "" | Some (id, _) -> "\nauth=hmac\nkey-id=" ^ id
  in
  Link.send link (Bytes.of_string hello);
  (match Link.recv link with
  | Some r when Bytes.length r > 0 && Char.equal (Bytes.get r 0) 'o' ->
    let granted = String.split_on_char ' ' (Bytes.sub_string r 1 (Bytes.length r - 1)) in
    check bool "comp=lz granted" true (List.mem "comp=lz" granted)
  | _ -> Alcotest.fail "HELLO refused");
  match auth with
  | None -> link
  | Some (_, key) -> Macframe.wrap (Macframe.state ~key) link

let block_rpc link body =
  Link.send link (Compress.compress (Bytes.of_string body));
  match Option.map Compress.decompress (Link.recv link) with
  | Some r when Bytes.length r > 0 && Char.equal (Bytes.get r 0) 'o' ->
    Bytes.sub_string r 1 (Bytes.length r - 1)
  | _ -> Alcotest.failf "rpc %C refused" body.[0]

(* a comp=lz subscriber that keeps every block it receives, newest
   first, and decodes the inflated frames *)
let block_subscriber ~port ?auth ~stream () =
  let link = block_conn ~port ?auth () in
  let schema = block_rpc link ("s" ^ stream) in
  let blocks = ref [] in
  let inflating =
    { Link.send = (fun _ -> invalid_arg "subscriber links are receive-only")
    ; recv =
        (fun () ->
          Option.map
            (fun blk ->
              blocks := blk :: !blocks;
              Compress.decompress blk)
            (Link.recv link))
    ; close = (fun () -> Link.close link) }
  in
  let catalog = Catalog.create Abi.sparc_32 in
  ignore (X2W.register_schema catalog schema);
  let rx =
    Endpoint.Receiver.create inflating (Catalog.registry catalog)
      (Memory.create Abi.sparc_32)
  in
  (rx, blocks, link)

(* a comp=lz publisher whose blocks come from [encode] (any valid block
   is legal on the wire); [sent] keeps (body, block) pairs, newest
   first *)
let block_publisher ~port ~stream =
  let link = block_conn ~port () in
  ignore (block_rpc link ("a" ^ stream ^ "\n" ^ Fx.schema_a));
  ignore (block_rpc link ("p" ^ stream));
  let encode = ref (fun body -> Compress.compress body) in
  let sent = ref [] in
  let encoding =
    { Link.send =
        (fun body ->
          let blk = !encode body in
          sent := (body, blk) :: !sent;
          Link.send link blk)
    ; recv = (fun () -> Link.recv link)
    ; close = (fun () -> Link.close link) }
  in
  let catalog = Catalog.create Abi.x86_64 in
  ignore (X2W.register_schema catalog Fx.schema_a);
  let fmt = Option.get (Catalog.find_format catalog "ASDOffEvent") in
  (Endpoint.Sender.create encoding (Memory.create Abi.x86_64), fmt, encode, sent, link)

(* Valid blocks the encoder never writes: the stored form (tag 0, n+1
   bytes) of any body, and an lz block holding the body as one literal
   run, whose 255-continuation length bytes make it longer than n+1. *)
let stored_block body =
  let b = Bytes.make (Bytes.length body + 1) '\000' in
  Bytes.blit body 0 b 1 (Bytes.length body);
  b

let literal_block body =
  let n = Bytes.length body in
  let b = Buffer.create (n + 16) in
  Buffer.add_char b '\001';
  Buffer.add_int32_be b (Int32.of_int n);
  if n < 15 then Buffer.add_char b (Char.chr (n lsl 4))
  else begin
    Buffer.add_char b '\xf0';
    let r = ref (n - 15) in
    while !r >= 255 do
      Buffer.add_char b '\xff';
      r := !r - 255
    done;
    Buffer.add_char b (Char.chr !r)
  end;
  Buffer.add_bytes b body;
  Buffer.to_bytes b

(* One relay, a comp=lz publisher and three subscribers: plain, comp=lz,
   and comp=lz with MAC. A block within the encoder's n+1 worst case
   reaches the compressed subscribers verbatim (the relay does not
   compress the body again); a longer one is compressed again; a corrupt
   one dooms its publisher and reaches no one. *)
let test_comp_block_forwarding () =
  let key = ("fwd", "forwarding-key") in
  let h = Relay.start ~auth_keys:[ key ] () in
  let port = Relay.port (Relay.relay h) in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let stream = "flights" in
  let sender, fmt, encode, sent, pub_link = block_publisher ~port ~stream in
  let plain = Relay.attach_consumer ~port ~stream Abi.arm_32 in
  let zrx, zblocks, zlink = block_subscriber ~port ~stream () in
  let mrx, mblocks, mlink = block_subscriber ~port ~auth:key ~stream () in
  let stat k =
    let c = Relay.Client.connect ~port () in
    let v = Option.value ~default:0 (List.assoc_opt k (Relay.Client.stats c)) in
    Relay.Client.close c;
    v
  in
  let wire_key = "comp." ^ stream ^ ".wire_bytes" in
  let next_seq what rx =
    match Endpoint.Receiver.recv_value rx with
    | Some (_, v) -> seq_of v
    | None -> Alcotest.failf "%s: subscriber closed" what
  in
  let blocks_t = Alcotest.list bytes_testable in
  (* publish [seqs] with blocks from [enc]; every subscriber decodes
     them, each compressed subscriber receives [want body blk] for every
     frame sent, and the stream's wire-byte total grows by what both
     received *)
  let phase what enc ~want seqs =
    let w0 = stat wire_key in
    encode := enc;
    sent := [];
    zblocks := [];
    mblocks := [];
    List.iter (fun seq -> publish sender fmt ~pad:(1000 + seq) seq) seqs;
    List.iter
      (fun seq ->
        check int (what ^ ": plain") seq (seq_of (snd (Option.get (Relay.recv plain))));
        check int (what ^ ": comp=lz") seq (next_seq what zrx);
        check int (what ^ ": comp=lz + mac") seq (next_seq what mrx))
      seqs;
    let expected = List.rev_map (fun (body, blk) -> want body blk) !sent in
    check blocks_t (what ^ ": comp=lz blocks") expected (List.rev !zblocks);
    check blocks_t (what ^ ": comp=lz + mac blocks") expected (List.rev !mblocks);
    let total = List.fold_left (fun n b -> n + Bytes.length b) 0 expected in
    check int (what ^ ": " ^ wire_key) (2 * total) (stat wire_key - w0)
  in
  (* canonical blocks: both ends run one encoder, so forwarded or not
     the subscribers get [Compress.compress body] *)
  phase "canonical" (fun body -> Compress.compress body)
    ~want:(fun body blk ->
      check bytes_testable "publisher block is canonical" (Compress.compress body) blk;
      Compress.compress body)
    [ 0; 1; 2 ];
  (* stored-form blocks for compressible bodies: the subscribers get
     those n+1 bytes, which only forwarding produces *)
  phase "stored form" stored_block
    ~want:(fun body blk ->
      check bool "body would compress" true
        (Bytes.length (Compress.compress body) < Bytes.length blk);
      blk)
    [ 3; 4 ];
  (* blocks over n+1 are compressed again to the canonical block *)
  phase "oversized" literal_block
    ~want:(fun body blk ->
      check bool "block over n+1" true
        (Bytes.length blk > Compress.bound (Bytes.length body));
      Compress.compress body)
    [ 5; 6 ];
  (* a corrupt block dooms its publisher and reaches no subscriber: the
     next event any of them decodes comes from a second publisher *)
  let rejected = stat "frames_rejected" and relayed = stat "events_relayed" in
  Link.send pub_link (Bytes.of_string "\001\000\000\000\016\000\000\005");
  ignore (wait_stat ~port "frames_rejected" (rejected + 1));
  (match Link.recv pub_link with
  | None -> ()
  | Some _ -> Alcotest.fail "doomed publisher got a reply"
  | exception (Link.Closed | Link.Timeout | Tcp.Tcp_error _) -> ());
  check int "corrupt block not relayed" relayed (stat "events_relayed");
  let sender2, fmt2, _, _, pub2 = block_publisher ~port ~stream in
  publish sender2 fmt2 ~pad:100 99;
  check int "plain: next event" 99 (seq_of (snd (Option.get (Relay.recv plain))));
  check int "comp=lz: next event" 99 (next_seq "after corrupt" zrx);
  check int "comp=lz + mac: next event" 99 (next_seq "after corrupt" mrx);
  Relay.close_consumer plain;
  List.iter Link.close [ zlink; mlink; pub2 ]

(* ------------------------------------------------------------------ *)
(* Acceptance: 64 concurrent TCP subscribers, zero loss, in order       *)
(* ------------------------------------------------------------------ *)

let test_64_subscribers_zero_loss_in_order () =
  let nsubs = 64 and nevents = 50 in
  (* a tight queue bound forces the Block policy to pause and resume
     the publisher repeatedly while subscribers drain *)
  let h = Relay.start ~policy:Relay.Block ~max_queue:4 () in
  let port = Relay.port (Relay.relay h) in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let pub, sender, fmt = make_publisher ~port ~stream:"flights" in
  let received = Array.make nsubs 0 in
  let ordered = Array.make nsubs true in
  let threads =
    Array.init nsubs (fun i ->
        Thread.create
          (fun () ->
            let abi = List.nth Abi.all (i mod List.length Abi.all) in
            let consumer = Relay.attach_consumer ~port ~stream:"flights" abi in
            let rec go prev =
              if prev < nevents - 1 then
                match Relay.recv consumer with
                | None -> ()
                | Some (_, v) ->
                  let seq = seq_of v in
                  received.(i) <- received.(i) + 1;
                  if seq <> prev + 1 then ordered.(i) <- false;
                  go seq
            in
            go (-1);
            Relay.close_consumer consumer)
          ())
  in
  ignore (wait_stat ~port "stream.flights.subscribers" nsubs);
  for seq = 0 to nevents - 1 do
    publish sender fmt seq
  done;
  Array.iter Thread.join threads;
  Array.iteri
    (fun i n -> check int (Printf.sprintf "subscriber %d event count" i) nevents n)
    received;
  check bool "every subscriber saw 0..49 strictly in order" true
    (Array.for_all Fun.id ordered);
  let c = Relay.Client.connect ~port () in
  let stats = Relay.Client.stats c in
  check int "no drops under block" 0
    (Option.value ~default:0 (List.assoc_opt "frames_dropped" stats));
  check int "no evictions under block" 0
    (Option.value ~default:0 (List.assoc_opt "subscribers_evicted" stats));
  Relay.Client.close c;
  Relay.Client.close pub

(* ------------------------------------------------------------------ *)
(* Slow consumers: eviction and shedding                                *)
(* ------------------------------------------------------------------ *)

(* a subscriber that never reads; ~64 KiB events overwhelm the socket
   buffers (SO_SNDBUF forced small) and then the bounded queue.

   The publisher is paced by the reading consumer's progress, not by
   the clock. With an 8 KiB send buffer every 64 KiB frame leaves the
   relay in socket-buffer-sized writes, and the reader's kernel may hold
   its ACK for its ~40 ms delayed-ACK timer before the relay can write
   again: the reading consumer then drains only a few frames per 40 ms.
   A fixed publish interval could outrun that for longer than the grace
   window and evict the reading consumer as well. Staying at most
   [lead] frames ahead of it keeps its relay queue below the watermark
   however slowly its socket drains. *)
let test_evict_slow_consumer () =
  let max_queue = 8 in
  let h =
    Relay.start ~policy:Relay.Evict_slow ~max_queue ~evict_grace_s:0.75
      ~sndbuf:8192 ()
  in
  let port = Relay.port (Relay.relay h) in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let pub, sender, fmt = make_publisher ~port ~stream:"flights" in
  let stalled = Relay.Client.connect ~port () in
  ignore (Relay.Client.subscribe stalled ~stream:"flights");
  let nevents = 80 in
  let lead = max_queue / 2 in
  let healthy_done = Atomic.make false in
  let healthy_count = Atomic.make 0 in
  let healthy =
    Thread.create
      (fun () ->
        let consumer = Relay.attach_consumer ~port ~stream:"flights" Abi.x86_64 in
        let rec go prev =
          if prev < nevents - 1 then
            match Relay.recv consumer with
            | None -> ()
            | Some (_, v) ->
              Atomic.incr healthy_count;
              go (seq_of v)
        in
        go (-1);
        Atomic.set healthy_done true;
        Relay.close_consumer consumer)
      ()
  in
  ignore (wait_stat ~port "stream.flights.subscribers" 2);
  let deadline = Unix.gettimeofday () +. 30.0 in
  for seq = 0 to nevents - 1 do
    (* publish [seq] only once that leaves at most [lead] frames the
       reading consumer has not received, so fewer than [max_queue] of
       them can be queued for it at the relay *)
    while
      seq + 1 - Atomic.get healthy_count > lead
      && not (Atomic.get healthy_done)
    do
      if Unix.gettimeofday () > deadline then
        Alcotest.failf "reading consumer stuck at %d of %d events"
          (Atomic.get healthy_count) seq;
      Thread.delay 0.001
    done;
    publish sender fmt ~pad:65536 seq
  done;
  Thread.join healthy;
  ignore (wait_stat ~port "subscribers_evicted" 1);
  check bool "healthy subscriber unaffected" true (Atomic.get healthy_done);
  check int "healthy subscriber got every event" nevents
    (Atomic.get healthy_count);
  check int "stalled subscriber evicted" 1
    (wait_stat ~port "subscribers_evicted" 1);
  (* the reading consumer has closed, so no later eviction can be
     pending: the stalled one was the only one *)
  let c = Relay.Client.connect ~port () in
  check int "exactly one subscriber evicted" 1
    (Option.value ~default:0
       (List.assoc_opt "subscribers_evicted" (Relay.Client.stats c)));
  Relay.Client.close c;
  Relay.Client.close stalled;
  Relay.Client.close pub

let test_drop_oldest_keeps_stream_decodable () =
  let h = Relay.start ~policy:Relay.Drop_oldest ~max_queue:8 ~sndbuf:8192 () in
  let port = Relay.port (Relay.relay h) in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let pub, sender, fmt = make_publisher ~port ~stream:"flights" in
  let lagging = Relay.attach_consumer ~port ~stream:"flights" Abi.sparc_32 in
  ignore (wait_stat ~port "stream.flights.subscribers" 1);
  let nevents = 80 in
  for seq = 0 to nevents - 1 do
    publish sender fmt ~pad:65536 seq
  done;
  ignore (wait_stat ~port "events_relayed" nevents);
  ignore (wait_stat ~port "frames_dropped" 1);
  (* now start reading: dropped frames leave gaps but the descriptor
     was never shed, so everything that survived still decodes, in
     order, and the newest event is among them *)
  let seen = ref [] in
  let rec go () =
    match Relay.recv lagging with
    | None -> ()
    | Some (_, v) ->
      seen := seq_of v :: !seen;
      if seq_of v < nevents - 1 then go ()
  in
  go ();
  let seen = List.rev !seen in
  check bool "some events shed" true (List.length seen < nevents);
  check bool "survivors decode in order" true
    (List.sort compare seen = seen);
  check bool "newest event survived" true
    (List.mem (nevents - 1) seen);
  Relay.close_consumer lagging;
  Relay.Client.close pub

(* ------------------------------------------------------------------ *)
(* Chunked stored replay                                                *)
(* ------------------------------------------------------------------ *)

(* A SUBSCRIBE from=0 against a backlog much larger than the queue
   watermark: replay is paced in chunks from the writable callback, so
   the subscriber still receives every stored frame, in order, while
   the relay's queue never has to hold the whole backlog at once. *)
let test_chunked_replay_backpressure () =
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "omf-relay-replay-%d-%d" (Unix.getpid ())
         (Random.int 1000000))
  in
  let rec rm path =
    match (Unix.lstat path).Unix.st_kind with
    | Unix.S_DIR ->
      Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    | _ -> Sys.remove path
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  Fun.protect ~finally:(fun () -> rm root) @@ fun () ->
  let store = Omf_store.Store.default_config ~root in
  let nevents = 400 in
  let max_queue = 16 in
  let h = Relay.start ~max_queue ~store () in
  let port = Relay.port (Relay.relay h) in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let pub, sender, fmt = make_publisher ~port ~stream:"flights" in
  for seq = 0 to nevents - 1 do
    publish sender fmt seq
  done;
  ignore (wait_stat ~port "store_appends" nevents);
  (* replay the whole backlog through a 16-frame watermark *)
  let sub = Relay.Client.connect ~port () in
  let start, _schema, link =
    Relay.Client.subscribe_from sub ~stream:"flights" ~from:0
  in
  check bool "store-backed reply carries the offset" true (start = Some 0);
  let catalog = Catalog.create Abi.arm_32 in
  ignore (X2W.register_schema catalog Fx.schema_a);
  let receiver =
    Endpoint.Receiver.create link
      (Catalog.registry catalog)
      (Memory.create Abi.arm_32)
  in
  for expect = 0 to nevents - 1 do
    match Endpoint.Receiver.recv_value receiver with
    | Some (_, v) -> check int "in order, zero loss" expect (seq_of v)
    | None -> Alcotest.failf "stream closed at %d" expect
  done;
  (* the replay really was chunked, and it finished *)
  let stats = Relay.Client.stats pub in
  let stat key = Option.value ~default:0 (List.assoc_opt key stats) in
  check int "replay completed" 1 (stat "store_replay_done");
  check int "every frame came from the store" nevents
    (stat "store_replay_frames");
  check bool "paced in multiple chunks" true (stat "store_replay_chunks" > 1);
  Relay.Client.close sub;
  Relay.Client.close pub

(* ------------------------------------------------------------------ *)
(* Graceful drain-and-shutdown                                          *)
(* ------------------------------------------------------------------ *)

let test_graceful_drain_on_shutdown () =
  let h = Relay.start ~sndbuf:8192 ~drain_s:10.0 () in
  let port = Relay.port (Relay.relay h) in
  let pub, sender, fmt = make_publisher ~port ~stream:"flights" in
  let consumer = Relay.attach_consumer ~port ~stream:"flights" Abi.x86_64 in
  let nevents = 100 in
  for seq = 0 to nevents - 1 do
    publish sender fmt ~pad:4096 seq
  done;
  (* wait until the relay has ingested everything, then shut down while
     most frames are still queued for the (unread) subscriber *)
  ignore (wait_stat ~port "events_relayed" nevents);
  let stopper = Thread.create (fun () -> Relay.stop h) () in
  let count = ref 0 in
  let rec go () =
    match Relay.recv consumer with
    | Some _ ->
      incr count;
      go ()
    | None -> ()
  in
  go ();
  Thread.join stopper;
  check int "drain delivered every queued event before closing" nevents !count;
  Relay.close_consumer consumer;
  (try Relay.Client.close pub with _ -> ())

(* ------------------------------------------------------------------ *)
(* Overload governor (pure state machine; doc/OVERLOAD.md)              *)
(* ------------------------------------------------------------------ *)

let test_governor_hysteresis () =
  let module G = Relay.Governor in
  (* budget 1000: degraded at 700 (recover < 500), overloaded at 900
     (recover < 700) *)
  let g = G.create (G.config ~budget:1000 ()) in
  let transitions = ref [] in
  G.on_transition g (fun prev next ->
      transitions := (G.health_name prev, G.health_name next) :: !transitions);
  let health () = G.health_level (G.health g) in
  G.debit g 699;
  check int "below degraded_hi stays healthy" 0 (health ());
  G.debit g 1;
  check int "700 degrades" 1 (health ());
  (* hysteresis: dipping back under the high watermark is not recovery *)
  G.credit g 150;
  check int "550 still degraded" 1 (health ());
  G.credit g 51;
  check int "under 500 recovers" 0 (health ());
  G.debit g 401;
  check int "900 jumps straight to overloaded" 2 (health ());
  G.credit g 200;
  check int "700 still overloaded (recover < 700)" 2 (health ());
  G.credit g 1;
  check int "699 steps down to degraded" 1 (health ());
  G.credit g 300;
  check int "399 fully recovers" 0 (health ());
  check bool "every transition fired" true
    (List.rev !transitions
    = [ ("healthy", "degraded"); ("degraded", "healthy")
      ; ("healthy", "overloaded"); ("overloaded", "degraded")
      ; ("degraded", "healthy") ]);
  (* credits clamp at zero instead of going negative *)
  G.credit g 10_000;
  check int "used clamps at 0" 0 (G.used g);
  (* a disabled governor tracks usage but never changes health *)
  let off = G.create (G.config ~budget:0 ()) in
  G.debit off 1_000_000;
  check int "disabled stays healthy" 0 (G.health_level (G.health off));
  check bool "disabled reports so" false (G.enabled off)

(* the busy retry hint adapts to the observed drain rate: used bytes /
   credited-bytes-per-second, clamped to [configured, 10x configured] *)
let test_governor_adaptive_retry () =
  let module G = Relay.Governor in
  let g = G.create (G.config ~budget:10_000 ~busy_retry_ms:100 ()) in
  check int "no drain rate yet: the configured floor" 100 (G.busy_retry_ms g);
  G.debit g 1000;
  G.note_tick g ~now:10.0;
  (* first tick only arms the window; still the floor *)
  check int "first tick arms, floor holds" 100 (G.busy_retry_ms g);
  G.credit g 500;
  G.note_tick g ~now:11.0;
  check bool "rate observed" true (abs_float (G.drain_rate g -. 500.0) < 1e-6);
  (* 500 bytes still queued at 500 B/s -> ~1000ms estimate *)
  check int "estimate = used / rate" 1000 (G.busy_retry_ms g);
  (* a much faster drain pulls the hint down toward the floor *)
  G.credit g 450;
  G.note_tick g ~now:12.0;
  (* EWMA(0.5): (500 + 450) / 2 = 475 B/s; 50 B left -> ~105ms *)
  let hint = G.busy_retry_ms g in
  check bool "fast drain shrinks the hint" true (hint >= 100 && hint < 200);
  G.credit g 50;
  check int "nothing queued: floor again" 100 (G.busy_retry_ms g);
  (* a stalled queue cannot push the hint past the 10x ceiling *)
  G.debit g 10_000;
  G.note_tick g ~now:13.0;
  G.credit g 1;
  G.note_tick g ~now:14.0;
  check int "stall clamps at 10x the floor" 1000 (G.busy_retry_ms g);
  (* sub-10ms ticks are ignored so a burst of gauge refreshes cannot
     produce a garbage rate *)
  let before = G.drain_rate g in
  G.credit g 100;
  G.note_tick g ~now:14.001;
  check bool "too-close tick ignored" true
    (abs_float (G.drain_rate g -. before) < 1e-6)

let test_governor_overload_sheds_publish () =
  (* a tiny budget + a subscriber that never reads: publishing into the
     backlog must flip the shard to overloaded and shed PUBLISH with a
     retryable busy reply, while control traffic (STATS) still flows *)
  let handle =
    Relay.start ~policy:Relay.Block ~max_queue:100_000 ~sndbuf:4096
      ~governor:(Relay.Governor.config ~budget:16_384 ~busy_retry_ms:50 ())
      ()
  in
  Fun.protect ~finally:(fun () -> Relay.stop handle) @@ fun () ->
  let port = Relay.port (Relay.relay handle) in
  let admin = Relay.Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Relay.Client.close admin) @@ fun () ->
  Relay.Client.advertise admin ~stream:"storm" ~schema:Fx.schema_a;
  (* subscriber that never reads: its queue absorbs the budget *)
  let sub = Relay.Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Relay.Client.close sub) @@ fun () ->
  let _schema, _link = Relay.Client.subscribe sub ~stream:"storm" in
  let pub = Relay.Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Relay.Client.close pub) @@ fun () ->
  let link = Relay.Client.publish pub ~stream:"storm" in
  let frame = Bytes.make 1024 'x' in
  Bytes.set frame 0 'M';
  (* pump from a side thread: once the shard overloads it pauses this
     publisher's reads, so send eventually blocks — closing the socket
     in the finalizers unblocks it *)
  let stop = ref false in
  ignore
    (Thread.create
       (fun () ->
         try
           while not !stop do
             Omf_transport.Link.send link frame
           done
         with _ -> ())
       ());
  (* wait for the governor to notice the backlog *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait () =
    let stats = Relay.Client.stats admin in
    if List.assoc_opt "governor_health" stats = Some 2 then ()
    else if Unix.gettimeofday () > deadline then begin
      stop := true;
      Alcotest.fail "governor never reached overloaded"
    end
    else begin
      Thread.delay 0.02;
      wait ()
    end
  in
  wait ();
  stop := true;
  (* an overloaded shard refuses new PUBLISH retryably... *)
  let late = Relay.Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Relay.Client.close late) @@ fun () ->
  (match Relay.Client.publish late ~stream:"storm" with
  | _ -> Alcotest.fail "expected Busy from an overloaded relay"
  | exception Relay.Client.Busy { retry_ms } ->
    check int "busy carries the configured retry hint" 50 retry_ms);
  (* ...but control traffic still flows (STATS answered above, and the
     shed was counted) *)
  let stats = Relay.Client.stats admin in
  check bool "publish_busy counted" true
    (match List.assoc_opt "publish_busy" stats with
    | Some n -> n >= 1
    | None -> false);
  check bool "governor budget gauge exported" true
    (List.assoc_opt "governor_budget_bytes" stats = Some 16_384)

(* governor debits are taken from slice lengths at enqueue and credited
   back on write, shed, eviction, and close; whatever mix of those a
   connection's life ends in, the books must balance: once every
   subscriber is gone, [used] is exactly 0 — not merely small *)
let test_governor_accounting_symmetry () =
  let wait_used_zero h =
    let r = Relay.relay h in
    let deadline = Unix.gettimeofday () +. 10.0 in
    let rec go () =
      if Relay.governor_used r <> 0 && Unix.gettimeofday () < deadline then begin
        Thread.delay 0.01;
        go ()
      end
    in
    go ();
    Relay.governor_used r
  in
  let big_budget = Relay.Governor.config ~budget:(1 lsl 30) () in
  let nevents = 40 in
  (* phase 1: drop-oldest sheds + a draining consumer + closes *)
  (let h =
     Relay.start ~policy:Relay.Drop_oldest ~max_queue:8 ~sndbuf:8192
       ~governor:big_budget ()
   in
   Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
   let pub, sender, fmt = make_publisher ~port:(Relay.port (Relay.relay h)) ~stream:"flights" in
   let port = Relay.port (Relay.relay h) in
   let stalled = Relay.Client.connect ~port () in
   ignore (Relay.Client.subscribe stalled ~stream:"flights");
   let healthy =
     Thread.create
       (fun () ->
         let consumer =
           Relay.attach_consumer ~port ~stream:"flights" Abi.x86_64
         in
         let rec go prev =
           if prev < nevents - 1 then
             match Relay.recv consumer with
             | None -> ()
             | Some (_, v) -> go (seq_of v)
         in
         go (-1);
         Relay.close_consumer consumer)
       ()
   in
   ignore (wait_stat ~port "stream.flights.subscribers" 2);
   for seq = 0 to nevents - 1 do
     publish sender fmt ~pad:65536 seq
   done;
   ignore (wait_stat ~port "frames_dropped" 1);
   Thread.join healthy;
   Relay.Client.close stalled;
   Relay.Client.close pub;
   check int "used returns to 0 after sheds+writes+closes" 0
     (wait_used_zero h));
  (* phase 2: a slow-consumer eviction must also hand its bytes back *)
  let h =
    Relay.start ~policy:Relay.Evict_slow ~max_queue:8 ~evict_grace_s:0.2
      ~sndbuf:8192 ~governor:big_budget ()
  in
  Fun.protect ~finally:(fun () -> Relay.stop h) @@ fun () ->
  let port = Relay.port (Relay.relay h) in
  let pub, sender, fmt = make_publisher ~port ~stream:"flights" in
  let stalled = Relay.Client.connect ~port () in
  ignore (Relay.Client.subscribe stalled ~stream:"flights");
  ignore (wait_stat ~port "stream.flights.subscribers" 1);
  for seq = 0 to nevents - 1 do
    publish sender fmt ~pad:65536 seq
  done;
  ignore (wait_stat ~port "subscribers_evicted" 1);
  Relay.Client.close stalled;
  Relay.Client.close pub;
  check int "used returns to 0 after an eviction" 0 (wait_used_zero h)

let () =
  Alcotest.run "relay"
    [ ( "frames",
        [ QCheck_alcotest.to_alcotest prop_frame_reassembly
        ; Alcotest.test_case "oversized frame rejected" `Quick
            test_frame_max_length
        ; QCheck_alcotest.to_alcotest prop_macframe_roundtrip_and_tamper
        ; QCheck_alcotest.to_alcotest prop_slice_codec_equivalence ] )
    ; ( "pubsub",
        [ Alcotest.test_case "publish/subscribe + descriptor replay" `Quick
            test_pubsub_and_descriptor_replay
        ; Alcotest.test_case "credential scoping over TCP" `Quick
            test_scoped_credentials_over_tcp
        ; Alcotest.test_case "unknown stream / role errors" `Quick
            test_unknown_stream_and_role_errors
        ; Alcotest.test_case "stats protocol" `Quick test_stats_protocol
        ; Alcotest.test_case "cluster counters after a migration" `Quick
            test_cluster_counters_wiring
        ; Alcotest.test_case "comp=lz blocks forwarded, not recompressed"
            `Quick test_comp_block_forwarding ] )
    ; ( "scale",
        [ Alcotest.test_case "64 TCP subscribers, zero loss, in order" `Quick
            test_64_subscribers_zero_loss_in_order ] )
    ; ( "backpressure",
        [ Alcotest.test_case "evict-slow-consumer" `Quick
            test_evict_slow_consumer
        ; Alcotest.test_case "drop-oldest keeps stream decodable" `Quick
            test_drop_oldest_keeps_stream_decodable
        ; Alcotest.test_case "chunked stored replay under backpressure" `Quick
            test_chunked_replay_backpressure ] )
    ; ( "governor",
        [ Alcotest.test_case "hysteresis state machine" `Quick
            test_governor_hysteresis
        ; Alcotest.test_case "adaptive busy retry hint" `Quick
            test_governor_adaptive_retry
        ; Alcotest.test_case "overload sheds publish with busy" `Quick
            test_governor_overload_sheds_publish
        ; Alcotest.test_case "byte accounting symmetry" `Quick
            test_governor_accounting_symmetry ] )
    ; ( "shutdown",
        [ Alcotest.test_case "graceful drain" `Quick
            test_graceful_drain_on_shutdown ] ) ]
