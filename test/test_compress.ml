(* lib/compress — LZ block codec round-trips, adversarial inputs, and
   decoder hardening (doc/COMPRESS.md). *)

open Omf_machine
open Omf_pbio.Pbio
module Slice = Omf_util.Slice
module Compress = Omf_compress.Compress
module Fx = Omf_fixtures.Paper_structs

let bytes_testable =
  Alcotest.testable
    (fun fmt b -> Fmt.pf fmt "%d bytes" (Bytes.length b))
    Bytes.equal

let roundtrip what raw =
  let blk = Compress.compress raw in
  Alcotest.(check bool)
    (what ^ ": within bound")
    true
    (Bytes.length blk <= Compress.bound (Bytes.length raw));
  Alcotest.check bytes_testable (what ^ ": round-trip") raw
    (Compress.decompress blk)

let test_empty () =
  roundtrip "empty" Bytes.empty;
  Alcotest.(check int) "empty block is one byte" 1
    (Bytes.length (Compress.compress Bytes.empty))

let test_all_zero () =
  let raw = Bytes.make 65536 '\000' in
  let blk = Compress.compress raw in
  roundtrip "zeros" raw;
  Alcotest.(check bool) "zeros use the lz form" true (Compress.is_lz blk);
  Alcotest.(check bool)
    (Printf.sprintf "zeros shrink >100x (got %d)" (Bytes.length blk))
    true
    (Bytes.length blk * 100 < Bytes.length raw)

let test_structured () =
  (* paper-struct flavour: repeated field names, varying numbers *)
  let b = Buffer.create 4096 in
  for i = 0 to 499 do
    Buffer.add_string b
      (Printf.sprintf "<event><ts>%d</ts><host>node-%d</host><val>%f</val></event>"
         (1_000_000 + i) (i mod 7) (float_of_int i *. 0.25))
  done;
  let raw = Buffer.to_bytes b in
  let blk = Compress.compress raw in
  roundtrip "structured" raw;
  Alcotest.(check bool)
    (Printf.sprintf "structured shrinks >=2x (%d -> %d)" (Bytes.length raw)
       (Bytes.length blk))
    true
    (Bytes.length blk * 2 <= Bytes.length raw)

let test_incompressible () =
  let st = Random.State.make [| 0xC0FFEE |] in
  let raw =
    Bytes.init 8192 (fun _ -> Char.chr (Random.State.int st 256))
  in
  let blk = Compress.compress raw in
  roundtrip "random" raw;
  (* stored passthrough: worst case is exactly one byte of framing *)
  Alcotest.(check int) "random costs exactly 1 byte" (Bytes.length raw + 1)
    (Bytes.length blk)

let test_ragged_slices () =
  let backing = Bytes.make 1000 'x' in
  for i = 0 to 999 do
    Bytes.set backing i (Char.chr ((i * 7) mod 251))
  done;
  List.iter
    (fun (off, len) ->
      let s = Slice.make backing off len in
      let blk = Compress.compress_slice s in
      let got = Compress.decompress blk in
      Alcotest.check bytes_testable
        (Printf.sprintf "slice %d+%d" off len)
        (Bytes.sub backing off len) got)
    [ (0, 1000); (1, 999); (13, 100); (999, 1); (500, 0); (3, 997) ]

let test_slices_gather () =
  let a = Slice.of_string "header|" in
  let b = Slice.of_string (String.concat "," (List.init 200 string_of_int)) in
  let c = Slice.of_string "|footer" in
  let blk = Compress.compress_slices [ a; b; c ] in
  let want = Slice.concat [ a; b; c ] in
  Alcotest.check bytes_testable "gathered round-trip" want
    (Compress.decompress blk)

let expect_error what blk =
  match Compress.decompress blk with
  | exception Compress.Error _ -> ()
  | _ -> Alcotest.failf "%s: decoder accepted a malformed block" what

let test_malformed () =
  expect_error "empty input" Bytes.empty;
  expect_error "bad tag" (Bytes.of_string "\x07abc");
  expect_error "truncated header" (Bytes.of_string "\x01\x00\x00");
  (* valid block, then flip the distance past the output start *)
  let raw = Bytes.of_string (String.concat "" (List.init 64 (fun _ -> "abcd"))) in
  let blk = Compress.compress raw in
  Alcotest.(check bool) "fixture compresses" true (Compress.is_lz blk);
  let evil = Bytes.copy blk in
  (* grow the declared output so the token stream under-fills it *)
  Bytes.set evil 4 (Char.chr (Char.code (Bytes.get evil 4) lxor 0x40));
  expect_error "length mismatch" evil;
  let short = Bytes.sub blk 0 (Bytes.length blk - 3) in
  expect_error "truncated stream" short

(* A header's length claim is checked against what the token stream can
   produce (at most 255 bytes per token-stream byte) before the decoder
   allocates for it: five bytes claiming ~1 GiB must cost an error, not
   a gigabyte. *)
let test_claim_bounds_allocation () =
  let blk = Bytes.of_string "\x01\x3f\xff\xff\xf0" in
  let b0 = Gc.allocated_bytes () in
  expect_error "1 GiB claim in a 5-byte block" blk;
  let used = Gc.allocated_bytes () -. b0 in
  if used >= 65536. then
    Alcotest.failf "decoder allocated %.0f bytes for a 5-byte block" used

let gen_payload =
  (* mix of compressible and adversarial shapes *)
  QCheck.Gen.(
    frequency
      [ (3, map Bytes.of_string (string_size (int_bound 2000)))
      ; ( 2,
          map2
            (fun c n -> Bytes.make n c)
            (map Char.chr (int_bound 255))
            (int_bound 5000) )
      ; ( 2,
          map2
            (fun pat n ->
              let b = Buffer.create (n * String.length pat) in
              for _ = 1 to n do
                Buffer.add_string b pat
              done;
              Buffer.to_bytes b)
            (string_size ~gen:printable (int_range 1 40))
            (int_bound 300) )
      ; ( 2,
          map
            (fun n ->
              let st = Random.State.make [| n |] in
              Bytes.init n (fun _ -> Char.chr (Random.State.int st 256)))
            (int_bound 4000) ) ])

let prop_roundtrip =
  QCheck.Test.make ~name:"lz round-trip (arbitrary payloads)" ~count:300
    (QCheck.make gen_payload)
    (fun raw ->
      let blk = Compress.compress raw in
      Bytes.length blk <= Compress.bound (Bytes.length raw)
      && Bytes.equal raw (Compress.decompress blk))

let prop_slice_roundtrip =
  QCheck.Test.make ~name:"lz round-trip (ragged slice windows)" ~count:200
    (QCheck.make
       QCheck.Gen.(pair gen_payload (pair (int_bound 50) (int_bound 50)))
    )
    (fun (raw, (skew_l, skew_r)) ->
      let n = Bytes.length raw in
      let off = min skew_l n in
      let len = max 0 (n - off - min skew_r (n - off)) in
      let s = Slice.make raw off len in
      let got = Compress.decompress_slice (Slice.of_bytes (Compress.compress_slice s)) in
      Bytes.equal (Bytes.sub raw off len) got)

(* Every block the encoder writes passes the decoder's claim check, so
   the bound refuses no valid block: random, run-heavy and all-zero
   inputs up to 1 MiB (a long zero run is the densest block the encoder
   writes, ~255 output bytes per extension byte). *)
let prop_claim_within_bound =
  let scratch = Compress.scratch () in
  let max_len = 1 lsl 20 in
  let gen =
    QCheck.Gen.(
      frequency
        [ ( 1,
            map
              (fun n ->
                let st = Random.State.make [| n |] in
                Bytes.init n (fun _ -> Char.chr (Random.State.int st 256)))
              (int_bound max_len) )
        ; ( 2,
            map
              (fun n ->
                (* runs of random bytes with random lengths *)
                let st = Random.State.make [| n; 7 |] in
                let b = Bytes.create n in
                let i = ref 0 in
                while !i < n do
                  let run = min (n - !i) (1 + Random.State.int st 4096) in
                  Bytes.fill b !i run (Char.chr (Random.State.int st 256));
                  i := !i + run
                done;
                b)
              (int_bound max_len) )
        ; (1, map (fun n -> Bytes.make n '\000') (int_bound max_len))
        ; (1, return (Bytes.make max_len '\000')) ])
  in
  QCheck.Test.make ~name:"encoder blocks within the decoder's claim bound"
    ~count:40
    (QCheck.make ~print:(fun b -> Printf.sprintf "%d bytes" (Bytes.length b)) gen)
    (fun raw ->
      let blk = Compress.compress ~scratch raw in
      let len = Bytes.length blk in
      (not (Compress.is_lz blk) || Bytes.length raw <= 255 * (len - 5))
      && Bytes.equal raw (Compress.decompress blk))

(* ------------------------------------------------------------------ *)
(* Frozen reference encoder                                             *)
(* ------------------------------------------------------------------ *)

(* The match finder as first written: byte-at-a-time hashing and
   matching, no 4-byte reject. The production encoder is faster but
   must stay byte-identical to this on every input, so any block it
   ever wrote decodes the same and wire/store sizes never move. *)
module Reference = struct
  let min_match = 4
  let max_dist = 65535
  let hash_bits = 14
  let hash_size = 1 lsl hash_bits
  let min_compress_len = 16

  let hash4 src i =
    let b k = Char.code (Bytes.unsafe_get src (i + k)) in
    let v = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
    (v * 0x9E3779B1) lsr (32 - hash_bits) land (hash_size - 1)

  let match_len src base cand cur len =
    let k = ref 0 in
    while
      cur + !k < len
      && Bytes.unsafe_get src (base + cand + !k)
         = Bytes.unsafe_get src (base + cur + !k)
    do
      incr k
    done;
    !k

  exception Bail

  let stored src pos len =
    let out = Bytes.create (len + 1) in
    Bytes.set out 0 '\x00';
    Bytes.blit src pos out 1 len;
    out

  let compress_sub src ~pos ~len =
    if len < min_compress_len then stored src pos len
    else begin
      let budget = len - 5 in
      let out = Bytes.create len in
      let opos = ref 0 in
      let put c =
        if !opos >= budget then raise Bail;
        Bytes.unsafe_set out !opos c;
        incr opos
      in
      let put_byte v = put (Char.unsafe_chr (v land 0xff)) in
      let put_run v =
        let v = ref v in
        while !v >= 255 do
          put '\xff';
          v := !v - 255
        done;
        put_byte !v
      in
      let put_literals lo llen =
        if !opos + llen > budget then raise Bail;
        Bytes.blit src (pos + lo) out !opos llen;
        opos := !opos + llen
      in
      let emit_seq lo llen mlen dist =
        let ln = if llen >= 15 then 15 else llen in
        let mn = if mlen = 0 then 0 else min (mlen - min_match) 15 in
        put_byte ((ln lsl 4) lor mn);
        if ln = 15 then put_run (llen - 15);
        put_literals lo llen;
        if mlen > 0 then begin
          put_byte (dist lsr 8);
          put_byte dist;
          if mn = 15 then put_run (mlen - min_match - 15)
        end
      in
      let base = 1 in
      let head = Array.make hash_size 0 and prev = Array.make (max_dist + 1) 0 in
      let insert i =
        let h = hash4 src (pos + i) in
        Array.unsafe_set prev (i land max_dist) (Array.unsafe_get head h);
        Array.unsafe_set head h (base + i)
      in
      try
        let i = ref 0 in
        let lit_start = ref 0 in
        let misses = ref 0 in
        let hlimit = len - min_match in
        while !i <= hlimit do
          let cur = !i in
          let h = hash4 src (pos + cur) in
          let best_len = ref 0 in
          let best_dist = ref 0 in
          let cand = ref (head.(h) - base) in
          let tries = ref 32 in
          while !cand >= 0 && !tries > 0 do
            if cur - !cand > max_dist then cand := -1
            else begin
              if
                cur + !best_len < len
                && ( !best_len = 0
                   || Bytes.unsafe_get src (pos + !cand + !best_len)
                      = Bytes.unsafe_get src (pos + cur + !best_len) )
              then begin
                let l = match_len src pos !cand cur len in
                if l > !best_len then begin
                  best_len := l;
                  best_dist := cur - !cand
                end
              end;
              cand := Array.unsafe_get prev (!cand land max_dist) - base;
              decr tries
            end
          done;
          if !best_len >= min_match then begin
            emit_seq !lit_start (cur - !lit_start) !best_len !best_dist;
            let stop = min (cur + !best_len) (hlimit + 1) in
            let j = ref cur in
            while !j < stop do
              insert !j;
              incr j
            done;
            i := cur + !best_len;
            lit_start := !i;
            misses := 0
          end
          else begin
            insert cur;
            incr misses;
            i := cur + 1 + (!misses lsr 6)
          end
        done;
        let tail = len - !lit_start in
        if tail > 0 then emit_seq !lit_start tail 0 0;
        let blk = Bytes.create (5 + !opos) in
        Bytes.set blk 0 '\x01';
        Bytes.set blk 1 (Char.unsafe_chr ((len lsr 24) land 0xff));
        Bytes.set blk 2 (Char.unsafe_chr ((len lsr 16) land 0xff));
        Bytes.set blk 3 (Char.unsafe_chr ((len lsr 8) land 0xff));
        Bytes.set blk 4 (Char.unsafe_chr (len land 0xff));
        Bytes.blit out 0 blk 5 !opos;
        blk
      with Bail -> stored src pos len
    end
end

(* NDR payloads of the paper's structure A, as a relay link or a store
   segment sees them: fixed layout, a counter field, a few varying
   strings. [n] records from one of the ABIs, back to back. *)
let paper_structs ~abi_ix ~seed n =
  let abi = List.nth Abi.all (abi_ix mod List.length Abi.all) in
  let reg = Registry.create abi in
  let a, _, _, _ = Fx.register_all reg in
  let b = Buffer.create (n * 80) in
  for seq = 0 to n - 1 do
    let v =
      match Fx.value_a with
      | Value.Record fields ->
        Value.Record
          (List.map
             (fun (k, v) ->
               match k with
               | "fltNum" -> (k, Value.Int (Int64.of_int (seed + seq)))
               | "dest" -> (k, Value.String (Printf.sprintf "K%03d" ((seed * 7 + seq) mod 211)))
               | _ -> (k, v))
             fields)
      | v -> v
    in
    Buffer.add_bytes b (Encode.payload_of_value abi a v)
  done;
  Buffer.to_bytes b

let gen_identity_input =
  (* (buffer, window offset, window length) *)
  QCheck.Gen.(
    let whole g = map (fun b -> (b, 0, Bytes.length b)) g in
    let windowed g =
      map2
        (fun b (l, r) ->
          let n = Bytes.length b in
          let off = min l n in
          (b, off, max 0 (n - off - min r (n - off))))
        g
        (pair (int_bound 64) (int_bound 64))
    in
    let runs =
      (* run-heavy: a few distinct bytes in long runs, with short
         breaks that force literals between overlapping matches *)
      map
        (fun parts ->
          let b = Buffer.create 4096 in
          List.iter
            (fun (c, n) -> Buffer.add_string b (String.make n (Char.chr c)))
            parts;
          Buffer.to_bytes b)
        (list_size (int_range 1 40) (pair (int_bound 3) (int_range 1 300)))
    in
    let structs =
      map3
        (fun abi_ix seed n -> paper_structs ~abi_ix ~seed n)
        (int_bound 6) (int_bound 1000) (int_range 1 120)
    in
    frequency
      [ (3, whole gen_payload)
      ; (2, whole runs)
      ; (2, whole structs)
      ; (3, windowed (oneof [ gen_payload; runs; structs ])) ])

let prop_identical_to_reference =
  (* one scratch across every case: the epoch-coded chain entries left
     by earlier inputs must never leak into a later block *)
  let scratch = Compress.scratch () in
  QCheck.Test.make ~name:"encoder byte-identical to the reference" ~count:300
    (QCheck.make gen_identity_input)
    (fun (buf, pos, len) ->
      let want = Reference.compress_sub buf ~pos ~len in
      Bytes.equal want (Compress.compress_sub ~scratch buf ~pos ~len)
      && Bytes.equal want (Compress.compress_sub buf ~pos ~len))

let test_identical_large () =
  (* windows past 64 KiB exercise the chain ring's distance cut *)
  let region = paper_structs ~abi_ix:2 ~seed:7 2000 in
  let st = Random.State.make [| 0x1DE |] in
  for _ = 1 to 2000 do
    Bytes.set region (Random.State.int st (Bytes.length region))
      (Char.chr (Random.State.int st 256))
  done;
  let len = Bytes.length region in
  Alcotest.check bytes_testable "144 KiB struct region"
    (Reference.compress_sub region ~pos:0 ~len)
    (Compress.compress region)

let test_encoder_allocation () =
  (* the match finder must not allocate per input byte: with a scratch,
     one 4 KiB block costs a constant handful of words (the output
     buffers are major-heap allocations and do not count here) *)
  let scratch = Compress.scratch () in
  let n = 4096 in
  let shapes =
    [ ("paper-struct", Bytes.sub (paper_structs ~abi_ix:0 ~seed:1 64) 0 n)
    ; ("zeros", Bytes.make n '\000')
    ; ( "random",
        let st = Random.State.make [| 42 |] in
        Bytes.init n (fun _ -> Char.chr (Random.State.int st 256)) ) ]
  in
  List.iter
    (fun (what, raw) ->
      ignore (Compress.compress ~scratch raw);
      let w0 = Gc.minor_words () in
      let blk = Compress.compress ~scratch raw in
      let words = Gc.minor_words () -. w0 in
      Alcotest.check bytes_testable (what ^ ": round-trip") raw
        (Compress.decompress blk);
      if words >= float_of_int n then
        Alcotest.failf "%s: %.0f minor words for a %d-byte block (bound %d)"
          what words n n)
    shapes

let test_overlapping_and_disjoint_matches () =
  (* a run (dist 1 < mlen, byte-wise copy) next to a repeated phrase
     (dist >= mlen, block copy) in one block *)
  let phrase = "the quick brown fox jumps over the lazy dog; " in
  let raw =
    Bytes.of_string
      (String.make 300 'z' ^ phrase ^ "0123" ^ phrase ^ String.make 40 'q'
     ^ phrase)
  in
  roundtrip "mixed matches" raw;
  Alcotest.(check bool) "uses the lz form" true
    (Compress.is_lz (Compress.compress raw))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "compress"
    [ ( "codec",
        [ Alcotest.test_case "empty" `Quick test_empty
        ; Alcotest.test_case "all-zero" `Quick test_all_zero
        ; Alcotest.test_case "structured >=2x" `Quick test_structured
        ; Alcotest.test_case "incompressible passthrough" `Quick
            test_incompressible
        ; Alcotest.test_case "ragged slice offsets" `Quick test_ragged_slices
        ; Alcotest.test_case "gathered wire message" `Quick test_slices_gather
        ; Alcotest.test_case "malformed blocks rejected" `Quick test_malformed
        ; Alcotest.test_case "length claim bounds allocation" `Quick
            test_claim_bounds_allocation
        ; Alcotest.test_case "overlapping and disjoint matches" `Quick
            test_overlapping_and_disjoint_matches ]
        @ qsuite [ prop_roundtrip; prop_slice_roundtrip; prop_claim_within_bound ] )
    ; ( "encoder",
        [ Alcotest.test_case "large region identical to the reference" `Quick
            test_identical_large
        ; Alcotest.test_case "no per-byte allocation" `Quick
            test_encoder_allocation ]
        @ qsuite [ prop_identical_to_reference ] ) ]
