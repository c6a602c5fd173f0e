(** Negotiated wire compression: a dependency-free LZ block codec.

    The codec is LZ4-flavoured — a hash-chain match finder feeding a
    literal/match token stream — but the block format is our own
    (doc/COMPRESS.md). Every block is self-contained and stateless:
    there is no cross-frame dictionary, so a compressed frame can be
    dropped by queue policy, shared verbatim across a fan-out, or
    replayed out of context without corrupting anything downstream.

    Block layout (first byte is the tag):

    {v
      0x00  stored  — payload is the input verbatim (worst case: n+1)
      0x01  lz      — u32 BE decompressed length, then the token stream
    v}

    An LZ token packs literal length (high nibble) and match length − 4
    (low nibble), each extended past 14 by 255-continuation bytes;
    literals follow the token, then a 2-byte big-endian match distance
    (1..65535). A block ends after a literal run (or exactly after a
    match) when the input is exhausted. The encoder only emits an [lz]
    block when it is strictly smaller than the stored form, so
    incompressible input costs exactly one byte of framing.

    The decoder bounds-checks every read and write and raises [Error]
    on any malformed block — truncated stream, bad tag, distance past
    the output start, or a length that disagrees with the header. A
    header claiming more than 255 bytes per token-stream byte, more
    than any block can produce, is refused before the output buffer is
    allocated. *)

exception Error of string
(** Malformed compressed block. *)

val bound : int -> int
(** [bound n] is the worst-case block size for [n] input bytes: [n+1]. *)

type scratch
(** Reusable match-finder workspace (~640 KiB, allocated once). Without
    one, every compress call allocates and initializes its own chain
    arrays — fine for occasional blocks (segment sealing), ruinous at
    frame rate. A scratch is single-owner state: never share one across
    threads. Output is identical with or without. *)

val scratch : unit -> scratch

val compress : ?scratch:scratch -> Bytes.t -> Bytes.t
(** Compress a whole buffer into one self-contained block. *)

val compress_sub : ?scratch:scratch -> Bytes.t -> pos:int -> len:int -> Bytes.t
(** Compress a window of a buffer. Raises [Invalid_argument] when the
    window escapes the buffer. *)

val compress_slice : ?scratch:scratch -> Omf_util.Slice.t -> Bytes.t
(** Compress the viewed bytes without copying them first. *)

val compress_slices : ?scratch:scratch -> Omf_util.Slice.t list -> Bytes.t
(** Compress a wire message (iovec). Single-slice messages compress in
    place; multi-slice messages are gathered once. *)

val decompress : Bytes.t -> Bytes.t
(** Decompress a whole block. Raises [Error] on malformed input. *)

val decompress_sub : Bytes.t -> pos:int -> len:int -> Bytes.t
(** Decompress a block sitting in a window of a larger buffer. Raises
    [Error] on malformed input, [Invalid_argument] on a bad window. *)

val decompress_slice : Omf_util.Slice.t -> Bytes.t
(** Decompress the block viewed by a slice. *)

val is_lz : Bytes.t -> bool
(** Whether the block carries an [lz] payload (false for stored —
    observability only, both forms decompress the same way). *)
