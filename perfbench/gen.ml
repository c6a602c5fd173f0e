(** Seeded event generators and the subscriber's correctness oracle.

    Every event is a pure function of [(seed, seq)] and is built only
    when it is sent or checked: a 4 KiB sample block held for a whole
    run would distort the load process's GC, which shares the machine
    with the relay being measured. *)

open Omf_pbio.Pbio

(* splitmix64 finaliser: a well-mixed 64-bit word per (seed, seq, k) *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let word ~seed ~seq k =
  mix64
    (Int64.add
       (Int64.mul (Int64.of_int seed) 0x9e3779b97f4a7c15L)
       (Int64.add (Int64.mul (Int64.of_int seq) 0x632be59bd9b4e019L)
          (Int64.of_int k)))

(** Uniform in [0, bound). *)
let pick ~seed ~seq k bound =
  Int64.to_int (Int64.unsigned_rem (word ~seed ~seq k) (Int64.of_int bound))

(* ------------------------------------------------------------------ *)
(* Paper structure A: the airline ASD event (Appendix A, Figure 6).    *)
(* ------------------------------------------------------------------ *)

let centers = [| "ZTL"; "ZJX"; "ZDC"; "ZNY"; "ZOB"; "ZAU"; "ZMA"; "ZHU" |]
let airlines = [| "DELTA"; "UAL"; "AAL"; "SWA"; "JBU"; "ASA"; "FFT" |]
let equipment = [| "B757-232"; "A320-214"; "B737-800"; "E175"; "A321-231"; "CRJ-900" |]

let airports =
  [| "KATL"; "KMCO"; "KJFK"; "KORD"; "KDFW"; "KDEN"; "KLAX"; "KSEA"; "KBOS"; "KMIA" |]

let structure_a ~seed seq =
  let p k bound = pick ~seed ~seq k bound in
  let off = 1_579_800_000 + (seq * 7) + p 6 600 in
  Value.Record
    [ ("cntrID",
       Value.String
         (Printf.sprintf "%s-ARTCC-%04d" centers.(p 0 (Array.length centers))
            (p 1 10_000)))
    ; ("arln", Value.String airlines.(p 2 (Array.length airlines)))
    ; ("fltNum", Value.Int (Int64.of_int seq))
    ; ("equip", Value.String equipment.(p 3 (Array.length equipment)))
    ; ("org", Value.String airports.(p 4 (Array.length airports)))
    ; ("dest", Value.String airports.(p 5 (Array.length airports)))
      (* unsigned long is 4 bytes on sparc-32: stay below 2^32 *)
    ; ("off", Value.Uint (Int64.of_int off))
    ; ("eta", Value.Uint (Int64.of_int (off + 1800 + p 7 14_400))) ]

(* ------------------------------------------------------------------ *)
(* Scientific sample block: 512 doubles on a seeded random walk.       *)
(* ------------------------------------------------------------------ *)

let sample_count = 512

let schema_samples =
  Printf.sprintf
    {|<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="samples">
    <xsd:element name="seq" type="xsd:integer" />
    <xsd:element name="data" type="xsd:double" minOccurs="%d" maxOccurs="%d" />
  </xsd:complexType>
</xsd:schema>|}
    sample_count sample_count

(** ADC-style readings: an integer walk scaled by a power-of-two gain,
    so each double is exact and the low mantissa bytes repeat — the
    redundancy real instrument data gives a block compressor. *)
let samples ~seed seq =
  let level = ref (pick ~seed ~seq 0 65_536 - 32_768) in
  (* a 63-bit LCG, unboxed, so a block costs its 512 floats and no more *)
  let state = ref (Int64.to_int (word ~seed ~seq 1)) in
  let data =
    Array.init sample_count (fun _ ->
        state := (!state * 0x2545F4914F6CDD1D) + 1;
        level := !level + (((!state lsr 40) land 0xffff) mod 9) - 4;
        Value.Float (float_of_int !level /. 256.0))
  in
  Value.Record [ ("seq", Value.Int (Int64.of_int seq)); ("data", Value.Array data) ]

(** The sequence number every generated event carries in its first
    integer field. *)
let seq_of (v : Value.t) =
  match v with
  | Value.Record fields -> (
    match List.assoc_opt "fltNum" fields with
    | Some (Value.Int i) -> Int64.to_int i
    | _ -> (
      match List.assoc_opt "seq" fields with
      | Some (Value.Int i) -> Int64.to_int i
      | _ -> -1))
  | _ -> -1

(** What the subscriber saw, against the expected stream
    [first .. last]. Every miss counts towards the error rate. *)
type oracle = {
  mutable next : int;  (** the next sequence number expected *)
  mutable verified : int;  (** in order and equal to the regenerated event *)
  mutable lost : int;
  mutable reordered : int;  (** duplicates and out-of-order arrivals *)
  mutable mismatched : int;
  mutable closed_early : int;
}

let oracle first =
  { next = first; verified = 0; lost = 0; reordered = 0; mismatched = 0
  ; closed_early = 0 }

let errors o = o.lost + o.reordered + o.mismatched + o.closed_early

(** Check one decoded event against [expect seq]; returns its
    sequence number. *)
let check o ~expect (v : Value.t) =
  let seq = seq_of v in
  if seq < o.next then o.reordered <- o.reordered + 1
  else begin
    if seq > o.next then o.lost <- o.lost + (seq - o.next);
    o.next <- seq + 1;
    if Value.equal v (expect seq) then o.verified <- o.verified + 1
    else o.mismatched <- o.mismatched + 1
  end;
  seq

(** The stream ended (or timed out) before [last] arrived. *)
let close_short o ~last =
  if o.next <= last then begin
    o.lost <- o.lost + (last + 1 - o.next);
    o.closed_early <- o.closed_early + 1;
    o.next <- last + 1
  end
