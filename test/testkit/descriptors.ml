(** Hand-made malformed format descriptors shared by the decoder
    regression tests. *)

open Omf_machine
open Omf_pbio

(** A valid two-field descriptor whose second field name is patched to
    duplicate the first: every byte check passes, and only the layout
    recomputation notices. *)
let duplicate_field () : string =
  let reg = Format.Registry.create Abi.x86_64 in
  let fmt =
    Format.Registry.register reg
      (Ftype.declare "Dup" [ ("ax", "integer"); ("bx", "integer") ])
  in
  let blob = Bytes.of_string (Format_codec.encode fmt) in
  let key = "\000\000\000\002bx" in
  let rec find i =
    if Bytes.sub_string blob i (String.length key) = key then i
    else find (i + 1)
  in
  Bytes.blit_string "ax" 0 blob (find 0 + 4) 2;
  Bytes.to_string blob
