(* LZ block codec — see compress.mli for the format. Pure OCaml, no
   dependencies beyond Slice; hot paths index with unsafe_get after an
   up-front bounds check of the whole window. *)

module Slice = Omf_util.Slice

exception Error of string

let err fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let tag_stored = '\x00'
let tag_lz = '\x01'

let min_match = 4
let max_dist = 65535
let hash_bits = 14
let hash_size = 1 lsl hash_bits

(* Inputs shorter than this never win against stored-form framing. *)
let min_compress_len = 16

(* Refuse to allocate absurd outputs for a corrupt header. *)
let max_block_len = 1 lsl 30

let bound n = n + 1

let is_lz b = Bytes.length b > 0 && Bytes.get b 0 = tag_lz

(* -- encoder ------------------------------------------------------- *)

(* Unaligned 4- and 8-byte loads, for hashing and for comparing a run
   a word at a time. The compiler unboxes these when their result goes
   straight into an integer op or an equality test, so none of them
   allocates. *)
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external bswap32 : int32 -> int32 = "%bswap_int32"

(* The 4 bytes at [i] read little-endian (sign-extended: [hash_of]
   keeps only bits 18..31 of the product, which depend on the low 32
   bits alone). Hashing the little-endian value on every host keeps the
   match finder, and so every block, byte-identical across endianness. *)
let load32le src i =
  let v = get32u src i in
  Int32.to_int (if Sys.big_endian then bswap32 v else v)

let hash_of v = (v * 0x9E3779B1) lsr (32 - hash_bits) land (hash_size - 1)

let hash4 src i = hash_of (load32le src i)

(* Longest common run of [a] (at cand) and [b] (at cur), both relative
   to [base], bounded by the end of the window; compares 8 bytes at a
   time, then finishes byte by byte. Overlap (cand + k reaching past
   cur) is fine: by the time the decoder copies byte k, bytes before it
   are already written. *)
let match_len src base cand cur len =
  let a = base + cand and b = base + cur and lim = len - cur in
  let k = ref 0 in
  while !k + 8 <= lim && get64u src (a + !k) = get64u src (b + !k) do
    k := !k + 8
  done;
  while
    !k < lim && Bytes.unsafe_get src (a + !k) = Bytes.unsafe_get src (b + !k)
  do
    incr k
  done;
  !k

exception Bail
(* Token stream reached the stored-form size: stop and fall back. *)

let stored src pos len =
  let out = Bytes.create (len + 1) in
  Bytes.set out 0 tag_stored;
  Bytes.blit src pos out 1 len;
  out

(* Match-finder workspace, reusable across calls so the hot path never
   allocates or re-initializes the chain arrays. Entries are coded as
   [base + position]: each call claims a fresh [base] past every value
   any earlier call could have stored, so a stale entry decodes to a
   negative position and reads as empty — no clearing between blocks.
   [prev] is a ring over the 64 KiB match window; a slot reused by a
   position one window later decodes to an out-of-range distance and is
   cut by the [max_dist] check. *)
type scratch = {
  head : int array;  (* hash -> coded newest position *)
  prev : int array;  (* coded chain, indexed by position land window *)
  mutable base : int;  (* strictly positive, grows by [len] per call *)
}

let scratch () =
  { head = Array.make hash_size 0
  ; prev = Array.make (max_dist + 1) 0
  ; base = 1 }

let compress_sub ?scratch:ws src ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length src then
    invalid_arg
      (Printf.sprintf "Compress.compress_sub: window %d+%d of %d" pos len
         (Bytes.length src));
  if len < min_compress_len then stored src pos len
  else begin
    (* token-stream budget: 5 header bytes + budget must undercut the
       stored form's len + 1 *)
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
      (* 255-continuation extension bytes *)
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
    let s = match ws with Some s -> s | None -> scratch () in
    let base = s.base in
    s.base <- base + len;
    let head = s.head and prev = s.prev in
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
        let cur4 = load32le src (pos + cur) in
        let h = hash_of cur4 in
        let best_len = ref 0 in
        let best_dist = ref 0 in
        let cand = ref (head.(h) - base) in
        let tries = ref 32 in
        while !cand >= 0 && !tries > 0 do
          if cur - !cand > max_dist then cand := -1
          else begin
            (* cheap rejects: only a match of at least [min_match] bytes
               is ever emitted, so a candidate whose first 4 bytes differ
               cannot win; a longer match must also extend past
               best_len *)
            if
              load32le src (pos + !cand) = cur4
              && cur + !best_len < len
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
          (* index the covered positions so later matches can reach
             back into this run *)
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
          (* skip acceleration: on long incompressible runs, stride
             grows so worst-case encode stays near memcpy speed *)
          i := cur + 1 + (!misses lsr 6)
        end
      done;
      let tail = len - !lit_start in
      if tail > 0 then emit_seq !lit_start tail 0 0;
      let blk = Bytes.create (5 + !opos) in
      Bytes.set blk 0 tag_lz;
      Bytes.set blk 1 (Char.unsafe_chr ((len lsr 24) land 0xff));
      Bytes.set blk 2 (Char.unsafe_chr ((len lsr 16) land 0xff));
      Bytes.set blk 3 (Char.unsafe_chr ((len lsr 8) land 0xff));
      Bytes.set blk 4 (Char.unsafe_chr (len land 0xff));
      Bytes.blit out 0 blk 5 !opos;
      blk
    with Bail -> stored src pos len
  end

let compress ?scratch src =
  compress_sub ?scratch src ~pos:0 ~len:(Bytes.length src)

let compress_slice ?scratch (s : Slice.t) =
  compress_sub ?scratch s.buf ~pos:s.off ~len:s.len

let compress_slices ?scratch = function
  | [] -> compress ?scratch Bytes.empty
  | [ s ] -> compress_slice ?scratch s
  | parts -> compress ?scratch (Slice.concat parts)

(* -- decoder ------------------------------------------------------- *)

let decompress_sub src ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length src then
    invalid_arg
      (Printf.sprintf "Compress.decompress_sub: window %d+%d of %d" pos len
         (Bytes.length src));
  if len < 1 then err "empty block";
  match Bytes.get src pos with
  | c when c = tag_stored -> Bytes.sub src (pos + 1) (len - 1)
  | c when c = tag_lz ->
    if len < 5 then err "truncated lz header (%d bytes)" len;
    let b k = Char.code (Bytes.unsafe_get src (pos + k)) in
    let raw_len = (b 1 lsl 24) lor (b 2 lsl 16) lor (b 3 lsl 8) lor b 4 in
    (* Check the claim against what the [len - 5] token-stream bytes can
       produce before allocating for it. A sequence whose match length
       takes k extension bytes (k = 0 when the nibble is < 15) costs at
       least 3 + k input bytes (token, 2-byte distance, extension) and
       yields at most 4 + 15 + 255 k output bytes (each extension byte
       but the last adds 255, the last at most 254): 255 k + 18 <=
       255 (3 + k). Its literals cost one input byte each and yield one,
       and their extension bytes only add input. So no block yields more
       than 255 output bytes per token-stream byte, and a header that
       claims more is corrupt whatever follows it. *)
    if raw_len > max_block_len || raw_len > 255 * (len - 5) then
      err "block claims %d bytes from %d" raw_len len;
    let out = Bytes.create raw_len in
    let iend = pos + len in
    let ip = ref (pos + 5) in
    let op = ref 0 in
    let byte () =
      if !ip >= iend then err "truncated token stream";
      let v = Char.code (Bytes.unsafe_get src !ip) in
      incr ip;
      v
    in
    let run base =
      (* decode a 255-continuation extension *)
      let v = ref base in
      let k = ref 255 in
      while !k = 255 do
        k := byte ();
        v := !v + !k
      done;
      !v
    in
    while !ip < iend do
      let token = byte () in
      let llen =
        let l = token lsr 4 in
        if l = 15 then run 15 else l
      in
      if llen > 0 then begin
        if !ip + llen > iend then err "literal run past block end";
        if !op + llen > raw_len then err "literal run past output end";
        Bytes.blit src !ip out !op llen;
        ip := !ip + llen;
        op := !op + llen
      end;
      if !ip < iend then begin
        let dist = byte () in
        let dist = (dist lsl 8) lor byte () in
        let mlen =
          let m = token land 0xf in
          (if m = 15 then run 15 else m) + min_match
        in
        if dist = 0 || dist > !op then err "match distance %d at offset %d" dist !op;
        if !op + mlen > raw_len then err "match run past output end";
        if dist >= mlen then begin
          Bytes.blit out (!op - dist) out !op mlen;
          op := !op + mlen
        end
        else begin
          (* overlapping match (dist < mlen): copy byte-wise so each
             byte reads one already written by this same run *)
          let from = ref (!op - dist) in
          for _ = 1 to mlen do
            Bytes.unsafe_set out !op (Bytes.unsafe_get out !from);
            incr op;
            incr from
          done
        end
      end
    done;
    if !op <> raw_len then err "block decoded %d bytes, header said %d" !op raw_len;
    out
  | c -> err "bad block tag 0x%02x" (Char.code c)

let decompress src = decompress_sub src ~pos:0 ~len:(Bytes.length src)

let decompress_slice (s : Slice.t) = decompress_sub s.buf ~pos:s.off ~len:s.len
