(** Binary serialisation of format descriptors — the "efficiently
    represented meta-information that identifies the precise formats of
    transmitted data". A descriptor travels once per (connection, format)
    when a sender first uses a format (format negotiation); thereafter
    message headers carry only the 4-byte format id.

    The descriptor records the *sender-side physical layout* (offsets and
    element sizes under the sender ABI) plus the logical declaration, so
    the receiver can compile a conversion plan without sharing any source
    code with the sender. Nested formats are embedded recursively, outer
    format last, so decoding can resolve references in order. *)

open Omf_machine

exception Codec_error of string

let codec_error fmt = Printf.ksprintf (fun s -> raise (Codec_error s)) fmt

(* ---- primitive emitters: big-endian, length-prefixed strings ---- *)

let emit_u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))

let emit_u32 b v =
  let tmp = Bytes.create 4 in
  Endian.write_uint Endian.Big tmp ~off:0 ~size:4 (Int64.of_int v);
  Buffer.add_bytes b tmp

let emit_string b s =
  emit_u32 b (String.length s);
  Buffer.add_string b s

type cursor = { data : string; mutable pos : int }

let take_u8 c =
  if c.pos >= String.length c.data then codec_error "descriptor truncated";
  let v = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  v

let take_u32 c =
  if c.pos + 4 > String.length c.data then codec_error "descriptor truncated";
  let b = Bytes.of_string (String.sub c.data c.pos 4) in
  c.pos <- c.pos + 4;
  Int64.to_int (Endian.read_uint Endian.Big b ~off:0 ~size:4)

let take_string c =
  let n = take_u32 c in
  if n < 0 || c.pos + n > String.length c.data then
    codec_error "descriptor truncated (string of %d)" n;
  let s = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

(* ---- element/dimension tags ---- *)

let prim_code = function
  | Abi.Char -> 0 | Abi.Uchar -> 1 | Abi.Short -> 2 | Abi.Ushort -> 3
  | Abi.Int -> 4 | Abi.Uint -> 5 | Abi.Long -> 6 | Abi.Ulong -> 7
  | Abi.Longlong -> 8 | Abi.Ulonglong -> 9 | Abi.Float -> 10
  | Abi.Double -> 11 | Abi.Pointer -> 12

let prim_of_code = function
  | 0 -> Abi.Char | 1 -> Abi.Uchar | 2 -> Abi.Short | 3 -> Abi.Ushort
  | 4 -> Abi.Int | 5 -> Abi.Uint | 6 -> Abi.Long | 7 -> Abi.Ulong
  | 8 -> Abi.Longlong | 9 -> Abi.Ulonglong | 10 -> Abi.Float
  | 11 -> Abi.Double | 12 -> Abi.Pointer
  | n -> codec_error "unknown primitive code %d" n

let emit_elem b = function
  | Ftype.Int_t p ->
    emit_u8 b 0;
    emit_u8 b (prim_code p)
  | Ftype.Float_t p ->
    emit_u8 b 1;
    emit_u8 b (prim_code p)
  | Ftype.Char_t -> emit_u8 b 2
  | Ftype.String_t -> emit_u8 b 3
  | Ftype.Named_t n ->
    emit_u8 b 4;
    emit_string b n

let take_elem c : Ftype.elem =
  match take_u8 c with
  | 0 -> Ftype.Int_t (prim_of_code (take_u8 c))
  | 1 -> Ftype.Float_t (prim_of_code (take_u8 c))
  | 2 -> Ftype.Char_t
  | 3 -> Ftype.String_t
  | 4 -> Ftype.Named_t (take_string c)
  | n -> codec_error "unknown element tag %d" n

let emit_dim b = function
  | Ftype.Scalar -> emit_u8 b 0
  | Ftype.Fixed n ->
    emit_u8 b 1;
    emit_u32 b n
  | Ftype.Var control ->
    emit_u8 b 2;
    emit_string b control

let take_dim c : Ftype.dim =
  match take_u8 c with
  | 0 -> Ftype.Scalar
  | 1 -> Ftype.Fixed (take_u32 c)
  | 2 -> Ftype.Var (take_string c)
  | n -> codec_error "unknown dimension tag %d" n

(* ---- formats ---- *)

let rec collect_nested acc (fmt : Format.t) : Format.t list =
  (* dependency order: nested first, dedup by name *)
  let acc =
    List.fold_left
      (fun acc (f : Format.rfield) ->
        match f.Format.rf_elem with
        | Format.Rnested nested -> collect_nested acc nested
        | _ -> acc)
      acc fmt.Format.fields
  in
  if List.exists (fun (g : Format.t) -> String.equal g.Format.name fmt.Format.name) acc
  then acc
  else acc @ [ fmt ]

let emit_one b (fmt : Format.t) =
  emit_string b fmt.Format.name;
  emit_u32 b fmt.Format.id;
  emit_u32 b fmt.Format.layout.Layout.size;
  emit_u32 b fmt.Format.layout.Layout.struct_align;
  emit_u32 b (List.length fmt.Format.fields);
  List.iter2
    (fun (f : Format.rfield) (d : Ftype.field) ->
      emit_string b f.Format.rf_name;
      emit_elem b d.Ftype.f_elem;
      emit_dim b d.Ftype.f_dim;
      emit_u32 b f.Format.rf_layout.Layout.offset;
      emit_u32 b f.Format.rf_layout.Layout.elem_size)
    fmt.Format.fields fmt.Format.decl.Ftype.fields

(** [encode fmt] serialises [fmt] (and, recursively, the formats it nests)
    into a self-contained descriptor blob. *)
let encode (fmt : Format.t) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b "OMFD";
  emit_string b (Abi.fingerprint fmt.Format.abi);
  let formats = collect_nested [] fmt in
  emit_u32 b (List.length formats);
  List.iter (emit_one b) formats;
  Buffer.contents b

(** [decode blob] reconstructs the sender's format as a *wire-side*
    {!Format.t} (laid out under the sender's ABI, usable as the [wire]
    argument of {!Convert.compile}). The descriptor's recorded offsets are
    cross-checked against a recomputation under the reconstructed ABI —
    a malformed or tampered descriptor is rejected rather than mis-read. *)
let decode (blob : string) : Format.t =
  let c = { data = blob; pos = 0 } in
  if String.length blob < 4 || not (String.equal (String.sub blob 0 4) "OMFD")
  then codec_error "bad descriptor magic";
  c.pos <- 4;
  let abi =
    try Abi.of_fingerprint (take_string c)
    with Abi.Bad_fingerprint m -> codec_error "bad ABI fingerprint: %s" m
  in
  let count = take_u32 c in
  if count <= 0 || count > 1024 then codec_error "unreasonable format count %d" count;
  let catalog : (string, Format.t) Hashtbl.t = Hashtbl.create 8 in
  let last = ref None in
  for _ = 1 to count do
    let name = take_string c in
    let id = take_u32 c in
    let size = take_u32 c in
    let align = take_u32 c in
    let nfields = take_u32 c in
    if nfields <= 0 || nfields > 4096 then
      codec_error "format %S: unreasonable field count %d" name nfields;
    let fields =
      List.init nfields (fun _ ->
          let f_name = take_string c in
          let f_elem = take_elem c in
          let f_dim = take_dim c in
          let offset = take_u32 c in
          let elem_size = take_u32 c in
          ({ Ftype.f_name; f_elem; f_dim }, offset, elem_size))
    in
    let decl = { Ftype.name; fields = List.map (fun (d, _, _) -> d) fields } in
    let fmt =
      try Format.resolve ~abi ~id (Hashtbl.find_opt catalog) decl
      with Layout.Layout_error m | Format.Registration_error m ->
        codec_error "format %S: %s" name m
    in
    (* Cross-check the transmitted physical layout against our own
       recomputation under the same ABI: they must agree, or our plans
       would read the payload at the wrong offsets. *)
    if fmt.Format.layout.Layout.size <> size then
      codec_error "format %S: size %d disagrees with recomputed %d" name size
        fmt.Format.layout.Layout.size;
    if fmt.Format.layout.Layout.struct_align <> align then
      codec_error "format %S: align %d disagrees with recomputed %d" name align
        fmt.Format.layout.Layout.struct_align;
    List.iter2
      (fun (f : Format.rfield) ((d : Ftype.field), offset, elem_size) ->
        ignore d;
        if f.Format.rf_layout.Layout.offset <> offset
           || f.Format.rf_layout.Layout.elem_size <> elem_size then
          codec_error "format %S: field %S layout (%d,%d) disagrees with (%d,%d)"
            name f.Format.rf_name offset elem_size
            f.Format.rf_layout.Layout.offset f.Format.rf_layout.Layout.elem_size)
      fmt.Format.fields fields;
    Hashtbl.replace catalog name fmt;
    last := Some fmt
  done;
  match !last with
  | Some fmt -> fmt
  | None -> codec_error "empty descriptor"
