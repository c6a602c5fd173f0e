(** Tests for the PBIO substrate: format registration, native binding,
    NDR encoding, receiver-side conversion (compiled and interpreted),
    format negotiation descriptors and framing. *)

open Omf_machine
open Omf_pbio.Pbio
module Fx = Omf_fixtures.Paper_structs

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let str = Alcotest.string

let value_testable =
  Alcotest.testable (fun ppf v -> Fmt.string ppf (Value.to_string v)) Value.equal

(* [transfer ?mode sender_abi receiver_abi fmt_decls name v] registers the
   declarations on both sides, binds [v] on the sender, ships it through
   NDR framing + format negotiation, and returns (sent_normalised,
   received) values. *)
let transfer ?mode sender_abi receiver_abi (decls : Ftype.t list) name v =
  let sreg = Registry.create sender_abi in
  let rreg = Registry.create receiver_abi in
  List.iter (fun d -> ignore (Registry.register sreg d)) decls;
  List.iter (fun d -> ignore (Registry.register rreg d)) decls;
  let sfmt = Option.get (Registry.find sreg name) in
  let smem = Memory.create sender_abi in
  let addr = Native.store smem sfmt v in
  let sent = Native.load smem sfmt addr in
  let msg = message smem sfmt addr in
  let rmem = Memory.create receiver_abi in
  let receiver = Receiver.create ?mode rreg rmem in
  ignore (Receiver.learn receiver (Format_codec.encode sfmt));
  let _, received = Receiver.receive_value receiver msg in
  (sent, received)

(* ------------------------------------------------------------------ *)
(* Ftype declarations                                                   *)
(* ------------------------------------------------------------------ *)

let test_type_strings () =
  let roundtrip s = Ftype.to_type_string (Ftype.of_type_string s) in
  List.iter
    (fun s -> check str "type string round-trip" s (roundtrip s))
    [ "integer"; "unsigned long"; "float"; "double"; "char"; "string"
    ; "integer[5]"; "unsigned long[eta_count]"; "ASDOffEvent" ];
  check bool "integer maps to C int" true
    (match Ftype.of_type_string "integer" with
    | Ftype.Int_t Abi.Int, Ftype.Scalar -> true
    | _ -> false);
  check bool "bracket form parses to Fixed" true
    (match Ftype.of_type_string "integer[5]" with
    | Ftype.Int_t Abi.Int, Ftype.Fixed 5 -> true
    | _ -> false);
  check bool "name form parses to Var" true
    (match Ftype.of_type_string "integer[eta_count]" with
    | Ftype.Int_t Abi.Int, Ftype.Var "eta_count" -> true
    | _ -> false)

let test_bad_type_strings () =
  List.iter
    (fun s ->
      try
        ignore (Ftype.of_type_string s);
        Alcotest.failf "expected Bad_type_string for %S" s
      with Ftype.Bad_type_string _ -> ())
    [ ""; "integer[]"; "integer[0]"; "integer[-3]" ]

(* ------------------------------------------------------------------ *)
(* Registration: Table 1 structure sizes                                *)
(* ------------------------------------------------------------------ *)

let test_paper_struct_sizes_sparc32 () =
  (* The paper's testbed: 32-bit, big-endian, 8-byte-aligned doubles. *)
  let reg = Registry.create Abi.sparc_32 in
  let a, b, _, d = Fx.register_all reg in
  check int "structure A is 32 bytes (Table 1)" 32 (Format.struct_size a);
  check int "structure B is 52 bytes (Table 1)" 52 (Format.struct_size b);
  (* Table 1 reports 180 for C/D: that is the unpadded end offset
     (3 * 52 + 2 * 8 + 8 bytes of interior padding). sizeof rounds the
     total up to the 8-byte struct alignment, giving 184. *)
  check int "structure D spans 180 bytes (Table 1)" 180
    d.Format.layout.Layout.end_offset;
  check int "sizeof(structure D) = 184 (trailing padding)" 184
    (Format.struct_size d)

let test_paper_struct_sizes_x86_64 () =
  let reg = Registry.create Abi.x86_64 in
  let a, b, _, _ = Fx.register_all reg in
  (* 5 pointers + int + 2 longs, with LP64 padding *)
  check int "structure A under LP64" 64 (Format.struct_size a);
  check bool "structure B grows under LP64" true (Format.struct_size b > 52)

let test_registration_errors () =
  let reg = Registry.create Abi.x86_64 in
  (try
     ignore (Registry.register reg (Ftype.declare "bad" [ ("x", "NoSuchType") ]));
     Alcotest.fail "expected Registration_error (unknown nested)"
   with Format.Registration_error _ -> ());
  (try
     ignore
       (Registry.register reg
          (Ftype.declare "bad2" [ ("a", "integer[missing]"); ("b", "integer") ]));
     Alcotest.fail "expected Registration_error (missing control)"
   with Format.Registration_error _ -> ());
  (try
     ignore
       (Registry.register reg
          (Ftype.declare "bad3" [ ("a", "integer[c]"); ("c", "string") ]));
     Alcotest.fail "expected Registration_error (non-integer control)"
   with Format.Registration_error _ -> ());
  try
    ignore (Registry.register reg { Ftype.name = "empty"; fields = [] });
    Alcotest.fail "expected Registration_error (no fields)"
  with Format.Registration_error _ -> ()

let test_nested_must_exist_first () =
  let reg = Registry.create Abi.x86_64 in
  try
    ignore (Registry.register reg Fx.decl_d);
    Alcotest.fail "expected Registration_error (catalog order)"
  with Format.Registration_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Native binding                                                       *)
(* ------------------------------------------------------------------ *)

let normalize abi decls name v =
  let reg = Registry.create abi in
  List.iter (fun d -> ignore (Registry.register reg d)) decls;
  let fmt = Option.get (Registry.find reg name) in
  let mem = Memory.create abi in
  Native.load mem fmt (Native.store mem fmt v)

let test_native_roundtrip_all_abis () =
  List.iter
    (fun abi ->
      let v1 = normalize abi [ Fx.decl_a ] "ASDOffEvent" Fx.value_a in
      let v2 = normalize abi [ Fx.decl_a ] "ASDOffEvent" v1 in
      check value_testable (abi.Abi.name ^ " A load/store fixpoint") v1 v2;
      let b1 = normalize abi [ Fx.decl_b ] "ASDOffEventB" Fx.value_b in
      let b2 = normalize abi [ Fx.decl_b ] "ASDOffEventB" b1 in
      check value_testable (abi.Abi.name ^ " B load/store fixpoint") b1 b2;
      let d1 =
        normalize abi [ Fx.decl_c; Fx.decl_d ] "threeASDOffs" Fx.value_d
      in
      let d2 = normalize abi [ Fx.decl_c; Fx.decl_d ] "threeASDOffs" d1 in
      check value_testable (abi.Abi.name ^ " D load/store fixpoint") d1 d2)
    Abi.all

let test_control_field_autofill () =
  let v = normalize Abi.x86_64 [ Fx.decl_b ] "ASDOffEventB" Fx.value_b in
  check value_testable "eta_count synthesised from array length"
    (Value.Int 3L)
    (Value.field_exn v "eta_count")

let test_control_field_disagreement_rejected () =
  let bad = Value.set_field Fx.value_b "eta_count" (Value.Int 7L) in
  try
    ignore (normalize Abi.x86_64 [ Fx.decl_b ] "ASDOffEventB" bad);
    Alcotest.fail "expected Bind_error"
  with Native.Bind_error _ -> ()

let test_missing_field_rejected () =
  let v = Value.Record [ ("cntrID", Value.String "x") ] in
  try
    ignore (normalize Abi.x86_64 [ Fx.decl_a ] "ASDOffEvent" v);
    Alcotest.fail "expected Bind_error"
  with Native.Bind_error _ -> ()

let test_unknown_field_rejected () =
  let v =
    match Fx.value_a with
    | Value.Record fields -> Value.Record (("bogus", Value.Int 1L) :: fields)
    | _ -> assert false
  in
  try
    ignore (normalize Abi.x86_64 [ Fx.decl_a ] "ASDOffEvent" v);
    Alcotest.fail "expected Bind_error"
  with Native.Bind_error _ -> ()

let test_char_array_semantics () =
  let d =
    Ftype.declare "tag" [ ("name", "char[8]"); ("n", "integer") ]
  in
  let v = Value.Record [ ("name", Value.String "gate"); ("n", Value.Int 4L) ] in
  let loaded = normalize Abi.x86_64 [ d ] "tag" v in
  check value_testable "char[N] binds a short string and loads it back"
    (Value.String "gate")
    (Value.field_exn loaded "name")

let test_empty_dynamic_array () =
  let v =
    Value.set_field Fx.value_b "eta" (Value.Array [||])
    |> fun v -> Value.set_field v "eta_count" (Value.Int 0L)
  in
  let loaded = normalize Abi.sparc_32 [ Fx.decl_b ] "ASDOffEventB" v in
  check value_testable "empty dynamic array loads as empty"
    (Value.Array [||])
    (Value.field_exn loaded "eta")

(* ------------------------------------------------------------------ *)
(* NDR encoding: Table 1 encoded sizes                                  *)
(* ------------------------------------------------------------------ *)

let test_encoded_sizes_sparc32 () =
  let reg = Registry.create Abi.sparc_32 in
  let a, b, _, _ = Fx.register_all reg in
  let pa = Encode.payload_of_value Abi.sparc_32 a Fx.value_a in
  check int "structure A encodes to 72 bytes (Table 1)" 72 (Bytes.length pa);
  let pb = Encode.payload_of_value Abi.sparc_32 b Fx.value_b in
  check int "structure B encodes to 104 bytes (Table 1)" 104 (Bytes.length pb)

let test_encode_starts_with_native_image () =
  (* NDR: the payload begins with the sender's struct bytes verbatim. *)
  let abi = Abi.x86_64 in
  let reg = Registry.create abi in
  let fmt =
    Registry.register reg (Ftype.declare "nums" [ ("a", "integer"); ("b", "double") ])
  in
  let mem = Memory.create abi in
  let addr =
    Native.store mem fmt
      (Value.Record [ ("a", Value.Int 77L); ("b", Value.Float 1.5) ])
  in
  let payload = Encode.payload mem fmt addr in
  check bool "payload = native image for pointer-free structs" true
    (Bytes.equal payload (Memory.read_bytes mem addr (Format.struct_size fmt)))

let test_encode_rejects_wrong_abi_memory () =
  let reg = Registry.create Abi.sparc_32 in
  let a, _, _, _ = Fx.register_all reg in
  let mem = Memory.create Abi.x86_64 in
  try
    ignore (Encode.payload mem a 0);
    Alcotest.fail "expected Encode_error"
  with Encode.Encode_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Transfers                                                            *)
(* ------------------------------------------------------------------ *)

let test_homogeneous_transfer () =
  let sent, received =
    transfer Abi.x86_64 Abi.x86_64 [ Fx.decl_a ] "ASDOffEvent" Fx.value_a
  in
  check value_testable "homogeneous A" sent received

let test_cross_abi_matrix () =
  List.iter
    (fun sender ->
      List.iter
        (fun receiver ->
          let label w =
            Printf.sprintf "%s -> %s %s" sender.Abi.name receiver.Abi.name w
          in
          let sent, received =
            transfer sender receiver [ Fx.decl_a ] "ASDOffEvent" Fx.value_a
          in
          check value_testable (label "A") sent received;
          let sent, received =
            transfer sender receiver [ Fx.decl_b ] "ASDOffEventB" Fx.value_b
          in
          check value_testable (label "B") sent received;
          let sent, received =
            transfer sender receiver [ Fx.decl_c; Fx.decl_d ] "threeASDOffs"
              Fx.value_d
          in
          check value_testable (label "D") sent received)
        Abi.all)
    Abi.all

let test_interpreted_matches_compiled () =
  List.iter
    (fun receiver_abi ->
      let compiled =
        transfer Abi.sparc_32 receiver_abi [ Fx.decl_c; Fx.decl_d ]
          "threeASDOffs" Fx.value_d
      in
      let interpreted =
        transfer ~mode:Receiver.Interpreted Abi.sparc_32 receiver_abi
          [ Fx.decl_c; Fx.decl_d ] "threeASDOffs" Fx.value_d
      in
      check value_testable
        ("interpreted = compiled on " ^ receiver_abi.Abi.name)
        (snd compiled) (snd interpreted))
    [ Abi.x86_64; Abi.sparc_32; Abi.x86_32 ]

let test_homogeneous_plan_collapses () =
  (* An all-numeric struct between identical ABIs must compile to a single
     blit: the "directly from the medium into memory" fast path. *)
  let d =
    Ftype.declare "nums"
      [ ("a", "integer"); ("b", "integer"); ("c", "double"); ("d", "short")
      ; ("e", "unsigned long") ]
  in
  let reg1 = Registry.create Abi.x86_64 and reg2 = Registry.create Abi.x86_64 in
  let f1 = Registry.register reg1 d and f2 = Registry.register reg2 d in
  let plan = Convert.compile ~wire:f1 ~native:f2 in
  check int "single blit" 1 (Convert.op_count plan);
  (* and byte-swapped peers must not collapse *)
  let reg3 = Registry.create Abi.power_64 in
  let f3 = Registry.register reg3 d in
  let plan2 = Convert.compile ~wire:f3 ~native:f2 in
  check bool "byte-swapped plan needs per-field ops" true
    (Convert.op_count plan2 > 1)

let test_field_mismatch_detected () =
  let d1 = Ftype.declare "m" [ ("x", "integer") ] in
  let d2 = Ftype.declare "m" [ ("x", "string") ] in
  let reg1 = Registry.create Abi.x86_64 and reg2 = Registry.create Abi.x86_64 in
  let f1 = Registry.register reg1 d1 and f2 = Registry.register reg2 d2 in
  try
    ignore (Convert.compile ~wire:f1 ~native:f2);
    Alcotest.fail "expected Field_mismatch"
  with Convert.Field_mismatch _ -> ()

let decl_tracklist =
  (* dynamic array of strings: char** with a count *)
  Ftype.declare "tracklist"
    [ ("flight", "string"); ("fix_count", "integer")
    ; ("fixes", "string[fix_count]") ]

let value_tracklist =
  Value.Record
    [ ("flight", Value.String "DAL1771")
    ; ("fixes",
       Value.Array
         [| Value.String "ATL"; Value.String ""; Value.String "JAX-INTL" |]) ]

let test_dynamic_string_arrays () =
  (* native round-trip on every ABI *)
  List.iter
    (fun abi ->
      let v1 = normalize abi [ decl_tracklist ] "tracklist" value_tracklist in
      check value_testable
        (abi.Abi.name ^ " fixes survive (incl. empty string)")
        (Value.Array
           [| Value.String "ATL"; Value.String ""; Value.String "JAX-INTL" |])
        (Value.field_exn v1 "fixes"))
    Abi.all;
  (* cross-ABI NDR transfer, both directions *)
  List.iter
    (fun (s, r) ->
      let sent, received =
        transfer s r [ decl_tracklist ] "tracklist" value_tracklist
      in
      check value_testable
        (Printf.sprintf "char** %s -> %s" s.Abi.name r.Abi.name)
        sent received)
    [ (Abi.x86_64, Abi.sparc_32); (Abi.sparc_32, Abi.x86_64)
    ; (Abi.x86_32, Abi.power_64) ];
  (* empty array *)
  let empty =
    Value.Record
      [ ("flight", Value.String "DAL1"); ("fixes", Value.Array [||]) ]
  in
  let sent, received =
    transfer Abi.x86_64 Abi.sparc_32 [ decl_tracklist ] "tracklist" empty
  in
  check value_testable "empty char** array" sent received

(* ------------------------------------------------------------------ *)
(* Format evolution                                                     *)
(* ------------------------------------------------------------------ *)

let decl_v1 =
  Ftype.declare "position" [ ("lat", "double"); ("lon", "double") ]

let decl_v2 =
  Ftype.declare "position"
    [ ("lat", "double"); ("lon", "double"); ("alt", "double")
    ; ("callsign", "string") ]

let evolve_transfer sender_decl receiver_decl v =
  let sreg = Registry.create Abi.x86_64 in
  let rreg = Registry.create Abi.sparc_32 in
  let sfmt = Registry.register sreg sender_decl in
  ignore (Registry.register rreg receiver_decl);
  let smem = Memory.create Abi.x86_64 in
  let addr = Native.store smem sfmt v in
  let msg = message smem sfmt addr in
  let receiver = Receiver.create rreg (Memory.create Abi.sparc_32) in
  ignore (Receiver.learn receiver (Format_codec.encode sfmt));
  snd (Receiver.receive_value receiver msg)

let test_old_receiver_new_sender () =
  (* sender adds fields; old receiver ignores them (PBIO's restricted
     evolution) *)
  let v =
    Value.Record
      [ ("lat", Value.Float 33.64); ("lon", Value.Float (-84.43))
      ; ("alt", Value.Float 10000.0); ("callsign", Value.String "DAL1771") ]
  in
  let received = evolve_transfer decl_v2 decl_v1 v in
  check value_testable "extra wire fields dropped"
    (Value.Record [ ("lat", Value.Float 33.64); ("lon", Value.Float (-84.43)) ])
    received

let test_new_receiver_old_sender () =
  (* receiver's new fields arrive zeroed / empty *)
  let v =
    Value.Record [ ("lat", Value.Float 33.64); ("lon", Value.Float (-84.43)) ]
  in
  let received = evolve_transfer decl_v1 decl_v2 v in
  check value_testable "missing wire fields default"
    (Value.Record
       [ ("lat", Value.Float 33.64); ("lon", Value.Float (-84.43))
       ; ("alt", Value.Float 0.0); ("callsign", Value.String "") ])
    received

let test_receiver_stats () =
  let sreg = Registry.create Abi.x86_64 in
  let rreg = Registry.create Abi.sparc_32 in
  let sfmt = Registry.register sreg Fx.decl_a in
  ignore (Registry.register rreg Fx.decl_a);
  let receiver = Receiver.create rreg (Memory.create Abi.sparc_32) in
  ignore (Receiver.learn receiver (Format_codec.encode sfmt));
  let smem = Memory.create Abi.x86_64 in
  let addr = Native.store smem sfmt Fx.value_a in
  for _ = 1 to 5 do
    ignore (Receiver.receive receiver (message smem sfmt addr))
  done;
  let s = Receiver.stats receiver in
  check int "messages counted" 5 s.Receiver.messages;
  check bool "bytes counted" true (s.Receiver.bytes > 5 * 32);
  check int "one format learned" 1 s.Receiver.formats_learned;
  check int "one plan compiled (cache works)" 1 s.Receiver.plans_compiled;
  check int "no resolver involved" 0 s.Receiver.resolver_lookups

(* ------------------------------------------------------------------ *)
(* Format negotiation descriptors                                       *)
(* ------------------------------------------------------------------ *)

let test_codec_roundtrip () =
  List.iter
    (fun abi ->
      let reg = Registry.create abi in
      let _, _, _, d = Fx.register_all reg in
      let blob = Format_codec.encode d in
      let back = Format_codec.decode blob in
      check str "name survives" d.Format.name back.Format.name;
      check str "layout signature survives"
        (Format.layout_signature d) (Format.layout_signature back))
    Abi.all

let test_codec_rejects_corruption () =
  let reg = Registry.create Abi.x86_64 in
  let a, _, _, _ = Fx.register_all reg in
  let blob = Format_codec.encode a in
  (* flip a byte inside the layout section *)
  let corrupt = Bytes.of_string blob in
  Bytes.set corrupt (Bytes.length corrupt - 3) '\xFF';
  (try
     ignore (Format_codec.decode (Bytes.to_string corrupt));
     Alcotest.fail "expected Codec_error"
   with Format_codec.Codec_error _ -> ());
  try
    ignore (Format_codec.decode "OMFDgarbage");
    Alcotest.fail "expected Codec_error"
  with Format_codec.Codec_error _ -> ()

let test_codec_duplicate_field () =
  match Format_codec.decode (Omf_testkit.Descriptors.duplicate_field ()) with
  | _ -> Alcotest.fail "expected Codec_error"
  | exception Format_codec.Codec_error _ -> ()

let test_receiver_requires_negotiation () =
  let reg = Registry.create Abi.x86_64 in
  let a, _, _, _ = Fx.register_all reg in
  let msg = message_of_value Abi.x86_64 a Fx.value_a in
  let receiver = Receiver.create reg (Memory.create Abi.x86_64) in
  try
    ignore (Receiver.receive receiver msg);
    Alcotest.fail "expected Unknown_format"
  with Unknown_format _ -> ()

(* ------------------------------------------------------------------ *)
(* Framing                                                              *)
(* ------------------------------------------------------------------ *)

let test_wire_header_roundtrip () =
  let h =
    { Wire.abi_fingerprint = Abi.fingerprint Abi.sparc_64; format_id = 42
    ; base_size = 180; payload_length = 268 }
  in
  let b = Wire.write_header h in
  check int "header length" Wire.header_length (Bytes.length b);
  let h' = Wire.read_header b in
  check int "format id" 42 h'.Wire.format_id;
  check int "base size" 180 h'.Wire.base_size;
  check int "payload length" 268 h'.Wire.payload_length;
  check str "fingerprint" h.Wire.abi_fingerprint h'.Wire.abi_fingerprint

let test_wire_rejects_garbage () =
  (try
     ignore (Wire.read_header (Bytes.of_string "short"));
     Alcotest.fail "expected Frame_error"
   with Wire.Frame_error _ -> ());
  let bad = Bytes.make Wire.header_length '\000' in
  (try
     ignore (Wire.read_header bad);
     Alcotest.fail "expected Frame_error (magic)"
   with Wire.Frame_error _ -> ());
  let reg = Registry.create Abi.x86_64 in
  let a, _, _, _ = Fx.register_all reg in
  let msg = message_of_value Abi.x86_64 a Fx.value_a in
  let truncated = Bytes.sub msg 0 (Bytes.length msg - 1) in
  try
    ignore (Wire.split truncated);
    Alcotest.fail "expected Frame_error (length)"
  with Wire.Frame_error _ -> ()

let test_malicious_payload_bounds () =
  (* a payload whose string offset points outside must be rejected, not
     read out of bounds *)
  let reg = Registry.create Abi.x86_64 in
  let fmt = Registry.register reg (Ftype.declare "s" [ ("x", "string") ]) in
  let evil = Bytes.make (Format.struct_size fmt) '\000' in
  Endian.write_uint Endian.Little evil ~off:0 ~size:8 9999L;
  let rfmt = Format_codec.decode (Format_codec.encode fmt) in
  let plan = Convert.compile ~wire:rfmt ~native:fmt in
  try
    ignore (Convert.run plan evil (Memory.create Abi.x86_64));
    Alcotest.fail "expected Decode_error"
  with Convert.Decode_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Properties                                                           *)
(* ------------------------------------------------------------------ *)

let prop_native_fixpoint =
  QCheck.Test.make ~name:"native store/load fixpoint (random formats)"
    ~count:200
    (QCheck.make (Omf_testkit.Gen.format_and_value ()))
    (fun (abi, fmt, v) ->
      let mem = Memory.create abi in
      let v1 = Native.load mem fmt (Native.store mem fmt v) in
      let v2 = Native.load mem fmt (Native.store mem fmt v1) in
      Value.equal v1 v2)

let prop_cross_abi_transfer =
  QCheck.Test.make
    ~name:"cross-ABI NDR transfer preserves values (random formats)"
    ~count:200
    (QCheck.make
       (QCheck.Gen.pair (Omf_testkit.Gen.format_and_value ())
          Omf_testkit.Gen.abi))
    (fun ((sender_abi, sfmt, v), receiver_abi) ->
      let smem = Memory.create sender_abi in
      let addr = Native.store smem sfmt v in
      let sent = Native.load smem sfmt addr in
      let msg = message smem sfmt addr in
      let rreg = Registry.create receiver_abi in
      ignore (Registry.register rreg sfmt.Format.decl);
      let receiver = Receiver.create rreg (Memory.create receiver_abi) in
      ignore (Receiver.learn receiver (Format_codec.encode sfmt));
      let _, received = Receiver.receive_value receiver msg in
      Value.equal sent received)

let prop_unoptimized_plan_equivalent =
  QCheck.Test.make
    ~name:"unoptimized plans produce identical structs (random formats)"
    ~count:150
    (QCheck.make
       (QCheck.Gen.pair (Omf_testkit.Gen.format_and_value ())
          Omf_testkit.Gen.abi))
    (fun ((sender_abi, sfmt, v), receiver_abi) ->
      let smem = Memory.create sender_abi in
      let addr = Native.store smem sfmt v in
      let payload = Encode.payload smem sfmt addr in
      let wire = Format_codec.decode (Format_codec.encode sfmt) in
      let rreg = Registry.create receiver_abi in
      let native = Registry.register rreg sfmt.Format.decl in
      let receive plan =
        let mem = Memory.create receiver_abi in
        Native.load mem native (Convert.run plan payload mem)
      in
      Value.equal
        (receive (Convert.compile ~wire ~native))
        (receive (Convert.compile_unoptimized ~wire ~native)))

let prop_evolution_shared_fields_survive =
  QCheck.Test.make
    ~name:"evolution: shared fields survive sender-side field additions"
    ~count:150
    (QCheck.make
       (QCheck.Gen.pair (Omf_testkit.Gen.format_and_value ())
          Omf_testkit.Gen.abi))
    (fun ((sender_abi, old_fmt, _), receiver_abi) ->
      (* the sender upgrades: extra fields appended to the declaration *)
      let new_decl =
        { old_fmt.Format.decl with
          Ftype.fields =
            old_fmt.Format.decl.Ftype.fields
            @ [ Ftype.io_field "evo_extra_1" "double"
              ; Ftype.io_field "evo_extra_2" "string" ] }
      in
      let sreg = Registry.create sender_abi in
      let sfmt = Registry.register sreg new_decl in
      QCheck.Gen.generate1 (Omf_testkit.Gen.value_for_format sfmt)
      |> fun v ->
      let smem = Memory.create sender_abi in
      let addr = Native.store smem sfmt v in
      let sent = Native.load smem sfmt addr in
      let msg = message smem sfmt addr in
      (* the receiver still runs the OLD declaration *)
      let rreg = Registry.create receiver_abi in
      ignore (Registry.register rreg old_fmt.Format.decl);
      let receiver = Receiver.create rreg (Memory.create receiver_abi) in
      ignore (Receiver.learn receiver (Format_codec.encode sfmt));
      let _, received = Receiver.receive_value receiver msg in
      (* every field of the old declaration must carry the sent value *)
      List.for_all
        (fun (f : Ftype.field) ->
          match (Value.field sent f.Ftype.f_name, Value.field received f.Ftype.f_name) with
          | Some a, Some b -> Value.equal a b
          | _ -> false)
        old_fmt.Format.decl.Ftype.fields)

let prop_interpreted_equals_compiled =
  QCheck.Test.make
    ~name:"interpreted conversion = compiled plans (random formats)"
    ~count:150
    (QCheck.make
       (QCheck.Gen.pair (Omf_testkit.Gen.format_and_value ())
          Omf_testkit.Gen.abi))
    (fun ((sender_abi, sfmt, v), receiver_abi) ->
      let smem = Memory.create sender_abi in
      let addr = Native.store smem sfmt v in
      let msg = message smem sfmt addr in
      let receive mode =
        let rreg = Registry.create receiver_abi in
        ignore (Registry.register rreg sfmt.Format.decl);
        let r = Receiver.create ~mode rreg (Memory.create receiver_abi) in
        ignore (Receiver.learn r (Format_codec.encode sfmt));
        snd (Receiver.receive_value r msg)
      in
      Value.equal (receive Receiver.Compiled) (receive Receiver.Interpreted))

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "pbio"
    [ ( "ftype",
        [ Alcotest.test_case "type strings" `Quick test_type_strings
        ; Alcotest.test_case "bad type strings" `Quick test_bad_type_strings ] )
    ; ( "registration",
        [ Alcotest.test_case "Table 1 struct sizes (sparc-32)" `Quick
            test_paper_struct_sizes_sparc32
        ; Alcotest.test_case "LP64 sizes differ" `Quick
            test_paper_struct_sizes_x86_64
        ; Alcotest.test_case "registration errors" `Quick test_registration_errors
        ; Alcotest.test_case "catalog ordering enforced" `Quick
            test_nested_must_exist_first ] )
    ; ( "native",
        [ Alcotest.test_case "store/load fixpoint on every ABI" `Quick
            test_native_roundtrip_all_abis
        ; Alcotest.test_case "control field autofill" `Quick
            test_control_field_autofill
        ; Alcotest.test_case "control disagreement rejected" `Quick
            test_control_field_disagreement_rejected
        ; Alcotest.test_case "missing field rejected" `Quick
            test_missing_field_rejected
        ; Alcotest.test_case "unknown field rejected" `Quick
            test_unknown_field_rejected
        ; Alcotest.test_case "char[N] strings" `Quick test_char_array_semantics
        ; Alcotest.test_case "empty dynamic arrays" `Quick
            test_empty_dynamic_array ]
        @ qsuite [ prop_native_fixpoint ] )
    ; ( "encode",
        [ Alcotest.test_case "Table 1 encoded sizes (sparc-32)" `Quick
            test_encoded_sizes_sparc32
        ; Alcotest.test_case "payload starts with native image" `Quick
            test_encode_starts_with_native_image
        ; Alcotest.test_case "ABI mismatch rejected" `Quick
            test_encode_rejects_wrong_abi_memory ] )
    ; ( "transfer",
        [ Alcotest.test_case "homogeneous" `Quick test_homogeneous_transfer
        ; Alcotest.test_case "full cross-ABI matrix (A, B, D)" `Slow
            test_cross_abi_matrix
        ; Alcotest.test_case "interpreted matches compiled" `Quick
            test_interpreted_matches_compiled
        ; Alcotest.test_case "homogeneous plan collapses to one blit" `Quick
            test_homogeneous_plan_collapses
        ; Alcotest.test_case "field kind mismatch detected" `Quick
            test_field_mismatch_detected
        ; Alcotest.test_case "dynamic string arrays (char**)" `Quick
            test_dynamic_string_arrays
        ; Alcotest.test_case "receiver statistics" `Quick test_receiver_stats ]
        @ qsuite
            [ prop_cross_abi_transfer; prop_interpreted_equals_compiled
            ; prop_unoptimized_plan_equivalent
            ; prop_evolution_shared_fields_survive ] )
    ; ( "evolution",
        [ Alcotest.test_case "old receiver, new sender" `Quick
            test_old_receiver_new_sender
        ; Alcotest.test_case "new receiver, old sender" `Quick
            test_new_receiver_old_sender ] )
    ; ( "negotiation",
        [ Alcotest.test_case "descriptor round-trip" `Quick test_codec_roundtrip
        ; Alcotest.test_case "corruption rejected" `Quick
            test_codec_rejects_corruption
        ; Alcotest.test_case "duplicate field is a Codec_error" `Quick
            test_codec_duplicate_field
        ; Alcotest.test_case "receive before negotiation fails" `Quick
            test_receiver_requires_negotiation ] )
    ; ( "framing",
        [ Alcotest.test_case "header round-trip" `Quick test_wire_header_roundtrip
        ; Alcotest.test_case "garbage rejected" `Quick test_wire_rejects_garbage
        ; Alcotest.test_case "malicious payload bounds-checked" `Quick
            test_malicious_payload_bounds ] ) ]
