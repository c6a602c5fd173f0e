let src = Logs.Src.create "omf.store" ~doc:"Durable stream store"

module Log = (val Logs.src_log src : Logs.LOG)
module Slice = Omf_util.Slice
module Compress = Omf_compress.Compress

exception Store_error of string

let store_error fmt = Fmt.kstr (fun s -> raise (Store_error s)) fmt

type fsync_policy = Never | Every_n of int | Interval of float

let fsync_policy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "never" -> Ok Never
  | s when String.length s > 6 && String.sub s 0 6 = "every=" -> (
    match int_of_string_opt (String.sub s 6 (String.length s - 6)) with
    | Some n when n > 0 -> Ok (Every_n n)
    | _ -> Error "every=N needs a positive integer")
  | s when String.length s > 9 && String.sub s 0 9 = "interval=" -> (
    match float_of_string_opt (String.sub s 9 (String.length s - 9)) with
    | Some f when f > 0. -> Ok (Interval f)
    | _ -> Error "interval=SECS needs a positive number")
  | _ -> Error "expected never, every=N or interval=SECS"

let fsync_policy_to_string = function
  | Never -> "never"
  | Every_n n -> Printf.sprintf "every=%d" n
  | Interval s -> Printf.sprintf "interval=%g" s

type config = {
  root : string;
  segment_bytes : int;
  index_every : int;
  fsync : fsync_policy;
  retain_segments : int;
  retain_bytes : int;
  retain_age : float;
  compress : bool;
      (** rewrite each segment as one LZ block when it is sealed
          (doc/COMPRESS.md); the tail stays uncompressed so appends and
          torn-tail recovery are unchanged, and retention budgets count
          the compressed on-disk size *)
}

let default_config ~root =
  {
    root;
    segment_bytes = 64 * 1024 * 1024;
    index_every = 64;
    fsync = Interval 0.1;
    retain_segments = 0;
    retain_bytes = 0;
    retain_age = 0.;
    compress = false;
  }

(* On-disk framing: magic header, then [u32 len | u32 crc | body]
   records. Meta bodies start with a kind byte ('S' schema text, 'D'
   verbatim descriptor frame, 'A' advertisement metadata as "k=v"
   lines — latest wins); segment bodies are verbatim 'M' frames. *)

let seg_magic = "OMFSEG01"

(* A sealed-and-compressed segment: magic, then one {!Omf_compress}
   block whose plaintext is the record region a plain segment would
   hold after its magic. Only sealed segments ever carry this magic —
   [roll] creates the fresh tail {e before} rewriting the sealed file
   (tmp + rename), so the newest segment, the only one torn-tail
   recovery scans, is always a plain [seg_magic] file. *)
let seg_magic_z = "OMFSEGZ1"
let meta_magic = "OMFMETA1"
let magic_len = 8
let header_len = 8
let max_record = 1 lsl 26

type seg = {
  s_base : int; (* offset of first record *)
  s_path : string;
  mutable s_count : int;
  mutable s_size : int; (* file bytes incl. magic *)
  mutable s_index : (int * int) list; (* sparse (offset, pos), descending *)
  mutable s_sealed_at : float; (* mtime proxy for age retention *)
}

(* The last compressed sealed segment a read inflated, with a resume
   cursor: the record at region byte [z_pos] has stream offset [z_off].
   A chunked replay reads one segment in many small ranges; each range
   continues from the cursor instead of re-reading and re-inflating the
   file. Sealed compressed segments never change and [z_region] is
   never written after inflation, so slices already handed out stay
   valid when the entry moves on. *)
type inflated = {
  z_seg : seg; (* key, by physical identity *)
  z_region : Bytes.t;
  mutable z_off : int;
  mutable z_pos : int;
}

type t = {
  cfg : config;
  name : string;
  dir : string;
  meta_path : string;
  mutable meta_fd : Unix.file_descr;
  mutable schema_ : string option;
  mutable meta_kvs : (string * string) list;
  seen_desc : (string, unit) Hashtbl.t;
  mutable descs_rev : Bytes.t list;
  sealed : seg Queue.t; (* ascending base; every segment but the tail *)
  mutable tail_seg : seg;
  mutable tail_fd : Unix.file_descr;
  mutable tail_off : int; (* next offset *)
  mutable durable_ : int;
  mutable unsynced : int;
  mutable dirty : bool;
  mutable truncated : int;
  mutable comp_raw : int;
      (** record-region bytes fed to segment compression this run *)
  mutable comp_stored : int;
      (** what those regions occupy on disk after sealing *)
  mutable inflates : int;  (** compressed segments inflated by reads *)
  mutable zcache : inflated option;
  mutable closed : bool;
  mutable wbuf : Bytes.t;
      (** reusable record-staging buffer: header + body are framed here
          and written with one syscall, so an append allocates nothing
          (oversized records fall back to a one-shot buffer) *)
}

(* ------------------------------------------------------------------ *)
(* small IO helpers *)

let write_all fd b pos len =
  let off = ref pos and left = ref len in
  while !left > 0 do
    let n = Unix.write fd b !off !left in
    off := !off + n;
    left := !left - n
  done

let read_exact fd b pos len =
  (* returns bytes actually read (< len only at EOF) *)
  let off = ref pos and left = ref len in
  (try
     while !left > 0 do
       let n = Unix.read fd b !off !left in
       if n = 0 then raise Exit;
       off := !off + n;
       left := !left - n
     done
   with Exit -> ());
  len - !left

let put_u32 b pos v =
  Bytes.set b pos (Char.chr ((v lsr 24) land 0xFF));
  Bytes.set b (pos + 1) (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set b (pos + 2) (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b (pos + 3) (Char.chr (v land 0xFF))

let get_u32 b pos =
  (Char.code (Bytes.get b pos) lsl 24)
  lor (Char.code (Bytes.get b (pos + 1)) lsl 16)
  lor (Char.code (Bytes.get b (pos + 2)) lsl 8)
  lor Char.code (Bytes.get b (pos + 3))

let fsync_dir path =
  (* Persist directory entries (segment creation/unlink); best effort —
     some filesystems reject fsync on directories. *)
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    Unix.close fd

let mkdir_p path =
  let rec mk p =
    if p <> "/" && p <> "." && not (Sys.file_exists p) then begin
      mk (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  mk path

(* Stream names become directory names; escape anything outside a safe
   alphabet so arbitrary stream names (slashes, dots) cannot traverse. *)

let safe_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> true
  | _ -> false

let sanitize name =
  let b = Buffer.create (String.length name) in
  String.iter
    (fun c ->
      if safe_char c then Buffer.add_char b c
      else Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c)))
    name;
  if Buffer.length b = 0 then "%empty" else Buffer.contents b

let unsanitize dir_name =
  if dir_name = "%empty" then Some ""
  else
    let b = Buffer.create (String.length dir_name) in
    let n = String.length dir_name in
    let rec go i =
      if i >= n then Some (Buffer.contents b)
      else if dir_name.[i] = '%' then
        if i + 2 < n then (
          match int_of_string_opt ("0x" ^ String.sub dir_name (i + 1) 2) with
          | Some c ->
            Buffer.add_char b (Char.chr c);
            go (i + 3)
          | None -> None)
        else None
      else begin
        Buffer.add_char b dir_name.[i];
        go (i + 1)
      end
    in
    go 0

let seg_path dir base = Filename.concat dir (Printf.sprintf "%020d.seg" base)

let seg_base_of_name name =
  if Filename.check_suffix name ".seg" then
    int_of_string_opt (Filename.chop_suffix name ".seg")
  else None

(* ------------------------------------------------------------------ *)
(* record IO *)

(* records bigger than this don't go through the reusable staging
   buffer, so one huge append cannot pin megabytes forever *)
let wbuf_max = 1 lsl 20

let staging_buf t len =
  if len <= Bytes.length t.wbuf then t.wbuf
  else if len > wbuf_max then Bytes.create len
  else begin
    let cap = ref (max 4096 (2 * Bytes.length t.wbuf)) in
    while !cap < len do
      cap := !cap * 2
    done;
    t.wbuf <- Bytes.create !cap;
    t.wbuf
  end

let write_record t fd (body : Slice.t) =
  let len = Slice.length body in
  let buf = staging_buf t (header_len + len) in
  put_u32 buf 0 len;
  put_u32 buf 4 (Omf_util.Crc32.digest body.Slice.buf ~pos:body.Slice.off ~len);
  Slice.blit body buf header_len;
  write_all fd buf 0 (header_len + len);
  header_len + len

(* Scan one record at [pos]. [`Record (body, next_pos)] on success;
   [`Eof] when [pos] is exactly the end; [`Bad pos] when the bytes from
   [pos] on are torn or corrupt (truncation point). *)
let scan_record fd ~path ~size pos =
  if pos = size then `Eof
  else if pos + header_len > size then `Bad pos
  else begin
    ignore (Unix.lseek fd pos Unix.SEEK_SET);
    let hdr = Bytes.create header_len in
    if read_exact fd hdr 0 header_len < header_len then `Bad pos
    else
      let len = get_u32 hdr 0 and crc = get_u32 hdr 4 in
      if len < 1 || len > max_record || pos + header_len + len > size then
        `Bad pos
      else
        let body = Bytes.create len in
        if read_exact fd body 0 len < len then `Bad pos
        else if Omf_util.Crc32.digest body ~pos:0 ~len <> crc then `Bad pos
        else begin
          ignore path;
          `Record (body, pos + header_len + len)
        end
  end

(* Skip over a record without reading its body (used when seeking to a
   replay start inside a sealed segment). CRC is not checked here; it
   is checked when the record is actually delivered. *)
let skip_record fd ~size pos =
  if pos + header_len > size then `Bad pos
  else begin
    ignore (Unix.lseek fd pos Unix.SEEK_SET);
    let hdr = Bytes.create header_len in
    if read_exact fd hdr 0 header_len < header_len then `Bad pos
    else
      let len = get_u32 hdr 0 in
      if len < 1 || len > max_record || pos + header_len + len > size then
        `Bad pos
      else `Next (pos + header_len + len)
  end

(* ------------------------------------------------------------------ *)
(* meta log *)

(* 'A' record bodies: one "k=v" line per entry, newline-terminated —
   the same line syntax the relay's ADVERTISE metadata uses on the
   wire, so persisted bindings round-trip verbatim. *)

let meta_kvs_to_text (kvs : (string * string) list) : string =
  String.concat ""
    (List.map (fun (k, v) -> Printf.sprintf "%s=%s\n" k v) kvs)

let meta_kvs_of_text (s : string) : (string * string) list =
  String.split_on_char '\n' s
  |> List.filter_map (fun line ->
         match String.index_opt line '=' with
         | Some i when i > 0 ->
           Some
             ( String.sub line 0 i
             , String.sub line (i + 1) (String.length line - i - 1) )
         | _ -> None)

let load_meta t =
  if not (Sys.file_exists t.meta_path) then begin
    let fd =
      Unix.openfile t.meta_path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644
    in
    write_all fd (Bytes.of_string meta_magic) 0 magic_len;
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    Unix.close fd;
    fsync_dir t.dir
  end;
  let fd = Unix.openfile t.meta_path [ Unix.O_RDONLY ] 0 in
  let size = (Unix.fstat fd).Unix.st_size in
  let bad_magic () =
    let m = Bytes.create magic_len in
    read_exact fd m 0 magic_len < magic_len
    || Bytes.to_string m <> meta_magic
  in
  if size < magic_len || bad_magic () then begin
    Unix.close fd;
    if size < magic_len then begin
      (* torn during creation: rewrite *)
      let wfd =
        Unix.openfile t.meta_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644
      in
      write_all wfd (Bytes.of_string meta_magic) 0 magic_len;
      (try Unix.fsync wfd with Unix.Unix_error _ -> ());
      Unix.close wfd;
      t.truncated <- t.truncated + size
    end
    else
      store_error "%s: bad magic (not a store meta log)" t.meta_path
  end
  else begin
    let pos = ref magic_len in
    let stop = ref false in
    while not !stop do
      match scan_record fd ~path:t.meta_path ~size !pos with
      | `Eof -> stop := true
      | `Bad p ->
        Unix.close fd;
        let wfd = Unix.openfile t.meta_path [ Unix.O_WRONLY ] 0o644 in
        Unix.ftruncate wfd p;
        (try Unix.fsync wfd with Unix.Unix_error _ -> ());
        Unix.close wfd;
        t.truncated <- t.truncated + (size - p);
        Log.warn (fun m ->
            m "stream %S: truncated torn meta record at byte %d (%d bytes)"
              t.name p (size - p));
        raise Exit
      | `Record (body, next) ->
        (match Bytes.get body 0 with
        | 'S' ->
          t.schema_ <-
            Some (Bytes.sub_string body 1 (Bytes.length body - 1))
        | 'D' ->
          let digest =
            Omf_util.Sha256.digest_bytes body 0 (Bytes.length body)
          in
          if not (Hashtbl.mem t.seen_desc digest) then begin
            Hashtbl.replace t.seen_desc digest ();
            t.descs_rev <- body :: t.descs_rev
          end
        | 'A' ->
          t.meta_kvs <-
            meta_kvs_of_text
              (Bytes.sub_string body 1 (Bytes.length body - 1))
        | k ->
          Log.warn (fun m ->
              m "stream %S: unknown meta record kind %C ignored" t.name k));
        pos := next
    done;
    Unix.close fd
  end

let open_meta_append t =
  t.meta_fd <-
    Unix.openfile t.meta_path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644

(* ------------------------------------------------------------------ *)
(* segments *)

let create_segment t base =
  let path = seg_path t.dir base in
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  write_all fd (Bytes.of_string seg_magic) 0 magic_len;
  fsync_dir t.dir;
  let seg =
    {
      s_base = base;
      s_path = path;
      s_count = 0;
      s_size = magic_len;
      s_index = [];
      s_sealed_at = Unix.gettimeofday ();
    }
  in
  (seg, fd)

(* Scan the tail segment: count records, build the sparse index,
   truncate at the first torn/corrupt record. Returns the record
   count, or `Torn_header if even the magic is damaged. *)
let recover_tail t (seg : seg) =
  let fd = Unix.openfile seg.s_path [ Unix.O_RDWR ] 0o644 in
  let size = (Unix.fstat fd).Unix.st_size in
  let magic_ok =
    size >= magic_len
    &&
    let m = Bytes.create magic_len in
    read_exact fd m 0 magic_len = magic_len && Bytes.to_string m = seg_magic
  in
  if not magic_ok then begin
    Unix.close fd;
    `Torn_header size
  end
  else begin
    let pos = ref magic_len and count = ref 0 and stop = ref false in
    let index = ref [] in
    while not !stop do
      match scan_record fd ~path:seg.s_path ~size !pos with
      | `Eof -> stop := true
      | `Bad p ->
        Unix.ftruncate fd p;
        (try Unix.fsync fd with Unix.Unix_error _ -> ());
        t.truncated <- t.truncated + (size - p);
        Log.warn (fun m ->
            m "stream %S: truncated torn record at %s byte %d (%d bytes)"
              t.name (Filename.basename seg.s_path) p (size - p));
        seg.s_size <- p;
        stop := true
      | `Record (_, next) ->
        if !count mod t.cfg.index_every = 0 then
          index := (seg.s_base + !count, !pos) :: !index;
        incr count;
        pos := next;
        seg.s_size <- next
    done;
    Unix.close fd;
    seg.s_count <- !count;
    seg.s_index <- !index;
    `Recovered !count
  end

let load_segments t =
  (* sweep rewrite leftovers from a crash mid-compression: the plain
     original was still in place, so a tmp file is pure garbage *)
  Array.iter
    (fun n ->
      if Filename.check_suffix n ".seg.tmp" then
        try Unix.unlink (Filename.concat t.dir n) with Unix.Unix_error _ -> ())
    (Sys.readdir t.dir);
  let names =
    Sys.readdir t.dir |> Array.to_list
    |> List.filter_map (fun n ->
           match seg_base_of_name n with Some b -> Some (b, n) | None -> None)
    |> List.sort compare
  in
  match names with
  | [] ->
    let seg, fd = create_segment t 0 in
    t.tail_seg <- seg;
    t.tail_fd <- fd;
    t.tail_off <- 0
  | names ->
    let arr = Array.of_list names in
    let n = Array.length arr in
    let seg_of i =
      let base, name = arr.(i) in
      let path = Filename.concat t.dir name in
      let st = Unix.stat path in
      {
        s_base = base;
        s_path = path;
        (* sealed: dense offsets make the count pure filename
           arithmetic; the tail (-1) is scanned by recover_tail *)
        s_count = (if i + 1 < n then fst arr.(i + 1) - base else -1);
        s_size = st.Unix.st_size;
        s_index = [];
        s_sealed_at = st.Unix.st_mtime;
      }
    in
    for i = 0 to n - 2 do
      let seg = seg_of i in
      if seg.s_count <= 0 then
        store_error "%s: segment bases out of order" seg.s_path;
      Queue.add seg t.sealed
    done;
    let tail_seg = seg_of (n - 1) in
    (match recover_tail t tail_seg with
    | `Recovered count ->
      t.tail_seg <- tail_seg;
      t.tail_off <- tail_seg.s_base + count;
      t.tail_fd <-
        Unix.openfile tail_seg.s_path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644
    | `Torn_header sz ->
      (* The newest segment's header itself is torn (crash during
         creation): no record in it can be valid, so replace it with a
         fresh empty segment at the same base. *)
      Log.warn (fun m ->
          m "stream %S: dropping segment %s with torn header (%d bytes)"
            t.name (Filename.basename tail_seg.s_path) sz);
      t.truncated <- t.truncated + sz;
      Unix.unlink tail_seg.s_path;
      let seg, fd = create_segment t tail_seg.s_base in
      t.tail_seg <- seg;
      t.tail_off <- seg.s_base;
      t.tail_fd <- fd)

(* ------------------------------------------------------------------ *)

let stream t = t.name
let tail t = t.tail_off
let durable t = t.durable_
let oldest t =
  match Queue.peek_opt t.sealed with
  | Some s -> s.s_base
  | None -> t.tail_seg.s_base

let segments t = Queue.length t.sealed + 1
let bytes t = Queue.fold (fun a s -> a + s.s_size) t.tail_seg.s_size t.sealed
let schema t = t.schema_
let meta t = t.meta_kvs
let descriptors t = List.rev t.descs_rev
let truncated_bytes t = t.truncated
let comp_raw_bytes t = t.comp_raw
let comp_stored_bytes t = t.comp_stored
let inflates t = t.inflates

let check_open t = if t.closed then store_error "stream %S: closed" t.name

let do_sync t =
  if t.dirty then begin
    (try Unix.fsync t.tail_fd
     with Unix.Unix_error (e, _, _) ->
       store_error "stream %S: fsync: %s" t.name (Unix.error_message e));
    t.dirty <- false
  end;
  t.unsynced <- 0;
  t.durable_ <- t.tail_off;
  t.durable_

let sync t =
  check_open t;
  do_sync t

let apply_retention t =
  let deleted = ref 0 in
  let now = Unix.gettimeofday () in
  let excess () =
    match Queue.peek_opt t.sealed with
    | None -> false (* never delete the tail *)
    | Some oldest_seg ->
      (t.cfg.retain_segments > 0 && segments t > t.cfg.retain_segments)
      || (t.cfg.retain_bytes > 0 && bytes t > t.cfg.retain_bytes)
      || t.cfg.retain_age > 0.
         && now -. oldest_seg.s_sealed_at > t.cfg.retain_age
  in
  while excess () do
    let old = Queue.pop t.sealed in
    (try Unix.unlink old.s_path with Unix.Unix_error _ -> ());
    (match t.zcache with
    | Some z when z.z_seg == old -> t.zcache <- None
    | Some _ | None -> ());
    incr deleted;
    Log.info (fun m ->
        m "stream %S: retention dropped segment %s (%d records)" t.name
          (Filename.basename old.s_path) old.s_count)
  done;
  if !deleted > 0 then fsync_dir t.dir;
  !deleted

(* Rewrite a freshly sealed segment as one compressed block. Crash-safe
   by ordering: the caller has already created the new tail, so if this
   dies mid-rewrite the original plain segment survives (the tmp file
   is invisible to {!seg_base_of_name} and swept on open) and if it
   dies after the rename the compressed form is complete. Best-effort:
   an IO failure or an incompressible region leaves the segment plain —
   the read side sniffs the magic per file either way. *)
let compress_sealed t (seg : seg) =
  match
    let fd = Unix.openfile seg.s_path [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let size = (Unix.fstat fd).Unix.st_size in
        let m = Bytes.create magic_len in
        if
          size <= magic_len
          || read_exact fd m 0 magic_len < magic_len
          || Bytes.to_string m <> seg_magic
        then None
        else begin
          let region = Bytes.create (size - magic_len) in
          if read_exact fd region 0 (size - magic_len) < size - magic_len
          then None
          else
            let blk = Compress.compress region in
            if magic_len + Bytes.length blk >= size then None
            else Some (blk, size)
        end)
  with
  | None -> ()
  | Some (blk, raw_size) ->
    let tmp = seg.s_path ^ ".tmp" in
    let fd =
      Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    write_all fd (Bytes.of_string seg_magic_z) 0 magic_len;
    write_all fd blk 0 (Bytes.length blk);
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    Unix.close fd;
    Unix.rename tmp seg.s_path;
    fsync_dir t.dir;
    seg.s_size <- magic_len + Bytes.length blk;
    seg.s_index <- [];
    t.comp_raw <- t.comp_raw + (raw_size - magic_len);
    t.comp_stored <- t.comp_stored + seg.s_size;
    Log.debug (fun m ->
        m "stream %S: sealed %s compressed %d -> %d bytes" t.name
          (Filename.basename seg.s_path) raw_size seg.s_size)
  | exception (Unix.Unix_error _ | Sys_error _) -> ()

let roll t =
  (* Seal the current tail: make it durable, then start a new segment.
     When compressing, the new tail must exist on disk before the
     sealed file is rewritten — see {!compress_sealed}. *)
  (try Unix.fsync t.tail_fd with Unix.Unix_error _ -> ());
  Unix.close t.tail_fd;
  t.dirty <- false;
  t.unsynced <- 0;
  t.durable_ <- t.tail_off;
  let sealed = t.tail_seg in
  sealed.s_sealed_at <- Unix.gettimeofday ();
  let seg, fd = create_segment t t.tail_off in
  Queue.add sealed t.sealed;
  t.tail_seg <- seg;
  t.tail_fd <- fd;
  if t.cfg.compress then compress_sealed t sealed;
  ignore (apply_retention t)

let append_slice t (frame : Slice.t) =
  check_open t;
  if Slice.length frame = 0 then store_error "stream %S: empty frame" t.name;
  if Slice.length frame > max_record then
    store_error "stream %S: frame of %d bytes exceeds record limit" t.name
      (Slice.length frame);
  if t.tail_seg.s_size >= t.cfg.segment_bytes && t.tail_seg.s_count > 0
  then roll t;
  let seg = t.tail_seg in
  if seg.s_count mod t.cfg.index_every = 0 then
    seg.s_index <- (t.tail_off, seg.s_size) :: seg.s_index;
  let written = write_record t t.tail_fd frame in
  let off = t.tail_off in
  seg.s_count <- seg.s_count + 1;
  seg.s_size <- seg.s_size + written;
  t.tail_off <- off + 1;
  t.unsynced <- t.unsynced + 1;
  t.dirty <- true;
  (match t.cfg.fsync with
  | Never ->
    (* Durable enough for process crashes: the write is in the page
       cache. Power loss can still lose it; that is the contract. *)
    t.durable_ <- t.tail_off
  | Every_n n -> if t.unsynced >= n then ignore (do_sync t)
  | Interval _ -> ());
  off

let append t frame = append_slice t (Slice.of_bytes frame)

let append_meta t body =
  let _ = write_record t t.meta_fd (Slice.of_bytes body) in
  try Unix.fsync t.meta_fd
  with Unix.Unix_error (e, _, _) ->
    store_error "stream %S: meta fsync: %s" t.name (Unix.error_message e)

let append_descriptor t frame =
  check_open t;
  let digest = Omf_util.Sha256.digest_bytes frame 0 (Bytes.length frame) in
  if Hashtbl.mem t.seen_desc digest then false
  else begin
    Hashtbl.replace t.seen_desc digest ();
    t.descs_rev <- Bytes.copy frame :: t.descs_rev;
    append_meta t frame;
    true
  end

let set_schema t text =
  check_open t;
  if t.schema_ <> Some text then begin
    t.schema_ <- Some text;
    let body = Bytes.create (1 + String.length text) in
    Bytes.set body 0 'S';
    Bytes.blit_string text 0 body 1 (String.length text);
    append_meta t body
  end

let set_meta t kvs =
  check_open t;
  if t.meta_kvs <> kvs then begin
    t.meta_kvs <- kvs;
    let text = meta_kvs_to_text kvs in
    let body = Bytes.create (1 + String.length text) in
    Bytes.set body 0 'A';
    Bytes.blit_string text 0 body 1 (String.length text);
    append_meta t body
  end

(* Reading. A plain segment is read per call through a fresh read-only
   fd: seek to the nearest sparse-index entry at or below the requested
   offset, skip forward, then read windows of records. A compressed
   sealed segment (magic sniffed per open) is inflated whole — it is
   bounded by [segment_bytes] — into the one-entry {!inflated} cache and
   iterated from memory, so a replay inflates each compressed segment
   once however many ranges it reads it in. Records actually delivered
   are CRC-checked on both paths. *)

let seg_kind t (seg : seg) fd =
  let m = Bytes.create magic_len in
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  if seg.s_size < magic_len || read_exact fd m 0 magic_len < magic_len then
    store_error "stream %S: truncated segment %s" t.name
      (Filename.basename seg.s_path);
  match Bytes.to_string m with
  | s when s = seg_magic -> `Plain
  | s when s = seg_magic_z -> `Compressed
  | _ ->
    store_error "stream %S: segment %s: bad magic" t.name
      (Filename.basename seg.s_path)

let inflate_seg t (seg : seg) fd : Bytes.t =
  let zlen = seg.s_size - magic_len in
  let blob = Bytes.create zlen in
  ignore (Unix.lseek fd magic_len Unix.SEEK_SET);
  if read_exact fd blob 0 zlen < zlen then
    store_error "stream %S: truncated segment %s" t.name
      (Filename.basename seg.s_path);
  t.inflates <- t.inflates + 1;
  match Compress.decompress blob with
  | region -> region
  | exception Compress.Error msg ->
    store_error "stream %S: segment %s: corrupt compressed region: %s" t.name
      (Filename.basename seg.s_path) msg

(* Walk an inflated record region (record [i] lives at stream offset
   [seg.s_base + i]) from its cursor, or from the start when the cursor
   is already past [from], delivering [[from, seg_end)] and leaving the
   cursor on the next record. *)
let iter_region t (z : inflated) ~from ~seg_end (f : int -> Slice.t -> unit) =
  let region = z.z_region in
  let size = Bytes.length region in
  let corrupt p =
    store_error "stream %S: corrupt record at %s byte %d" t.name
      (Filename.basename z.z_seg.s_path) (p + magic_len)
  in
  if z.z_off > from then begin
    z.z_off <- z.z_seg.s_base;
    z.z_pos <- 0
  end;
  while z.z_off < seg_end do
    let off = z.z_off and pos = z.z_pos in
    if pos + header_len > size then corrupt pos;
    let len = get_u32 region pos and crc = get_u32 region (pos + 4) in
    if len < 1 || len > max_record || pos + header_len + len > size then
      corrupt pos;
    z.z_off <- off + 1;
    z.z_pos <- pos + header_len + len;
    if off >= from then begin
      if Omf_util.Crc32.digest region ~pos:(pos + header_len) ~len <> crc then
        corrupt pos;
      f off (Slice.make region (pos + header_len) len)
    end
  done

(* Plain segments: instead of one fresh body buffer per record, read a
   span of the file into one buffer and hand out CRC-checked
   sub-slices — a range costs one allocation per [fill_bytes] window,
   not one per frame. Each window is a {e fresh} buffer (never reused),
   because the slices handed to [f] are typically queued on connection
   write queues and must stay valid after this returns. *)

let fill_bytes = 256 * 1024

let iter_plain t (seg : seg) fd ~from ~seg_end (f : int -> Slice.t -> unit) =
  let size = seg.s_size in
  let corrupt p =
    store_error "stream %S: corrupt record at %s byte %d" t.name
      (Filename.basename seg.s_path) p
  in
  let start_off, start_pos =
    (* s_index is descending; find the first entry <= from *)
    let rec find = function
      | [] -> (seg.s_base, magic_len)
      | (o, p) :: rest -> if o <= from then (o, p) else find rest
    in
    find seg.s_index
  in
  let off = ref start_off and pos = ref start_pos in
  (* skip to [from] without reading bodies *)
  while !off < from do
    match skip_record fd ~size !pos with
    | `Next p ->
      pos := p;
      incr off
    | `Bad p -> corrupt p
  done;
  while !off < seg_end do
    let want = min fill_bytes (size - !pos) in
    if want < header_len then corrupt !pos;
    let buf = Bytes.create want in
    ignore (Unix.lseek fd !pos Unix.SEEK_SET);
    let got = read_exact fd buf 0 want in
    if got < header_len then corrupt !pos;
    let p = ref 0 in
    let progressed = ref false in
    (try
       while !off < seg_end && !p + header_len <= got do
         let len = get_u32 buf !p and crc = get_u32 buf (!p + 4) in
         if len < 1 || len > max_record || !pos + !p + header_len + len > size
         then corrupt (!pos + !p);
         if !p + header_len + len > got then
           (* crosses the window boundary: refill from here *)
           raise Exit;
         if Omf_util.Crc32.digest buf ~pos:(!p + header_len) ~len <> crc then
           corrupt (!pos + !p);
         f !off (Slice.make buf (!p + header_len) len);
         progressed := true;
         p := !p + header_len + len;
         incr off
       done
     with Exit -> ());
    pos := !pos + !p;
    if not !progressed then begin
      (* a record larger than the fill window: read it exactly *)
      let len = get_u32 buf 0 and crc = get_u32 buf 4 in
      let big = Bytes.create len in
      ignore (Unix.lseek fd (!pos + header_len) Unix.SEEK_SET);
      if read_exact fd big 0 len < len then corrupt !pos;
      if Omf_util.Crc32.digest big ~pos:0 ~len <> crc then corrupt !pos;
      f !off (Slice.of_bytes big);
      pos := !pos + header_len + len;
      incr off
    end
  done

(* Deliver [[from, min upto seg_end)] of one segment: from the cache
   when it holds this segment, else by opening the file — which, for a
   compressed segment, inflates it into the cache first. *)
let iter_seg t (seg : seg) ~from ~upto (f : int -> Slice.t -> unit) =
  let seg_end = min upto (seg.s_base + seg.s_count) in
  if from < seg_end then
    let cached =
      match t.zcache with
      | Some z when z.z_seg == seg -> Some z
      | Some _ | None ->
        let fd = Unix.openfile seg.s_path [ Unix.O_RDONLY ] 0 in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            match seg_kind t seg fd with
            | `Compressed ->
              let z =
                { z_seg = seg; z_region = inflate_seg t seg fd
                ; z_off = seg.s_base; z_pos = 0 }
              in
              t.zcache <- Some z;
              Some z
            | `Plain ->
              iter_plain t seg fd ~from ~seg_end f;
              None)
    in
    Option.iter (fun z -> iter_region t z ~from ~seg_end f) cached

exception Range_done

(** {!iter_from} bounded above, delivering bodies as slices into shared
    read buffers; the relay's chunked stored replay enqueues them
    without copying (doc/STORE.md). *)
let iter_range_slices t from upto (f : int -> Slice.t -> unit) =
  check_open t;
  let from = max from (oldest t) in
  let upto = min upto t.tail_off in
  let visit seg =
    if seg.s_base >= upto then raise Range_done;
    if seg.s_base + seg.s_count > from then
      iter_seg t seg ~from:(max from seg.s_base) ~upto f
  in
  if from < upto then
    try
      Queue.iter visit t.sealed;
      visit t.tail_seg
    with Range_done -> ()

let iter_from t from f =
  (* bytes-callback contract: each body is a private copy *)
  iter_range_slices t from max_int (fun off body -> f off (Slice.to_bytes body))

let close t =
  if not t.closed then begin
    (try ignore (do_sync t) with Store_error _ -> ());
    (try Unix.close t.tail_fd with Unix.Unix_error _ -> ());
    (try Unix.close t.meta_fd with Unix.Unix_error _ -> ());
    t.zcache <- None;
    t.closed <- true
  end

let open_stream cfg name =
  let dir = Filename.concat cfg.root (sanitize name) in
  mkdir_p dir;
  let t =
    {
      cfg;
      name;
      dir;
      meta_path = Filename.concat dir "meta.log";
      meta_fd = Unix.stdin (* replaced below *);
      schema_ = None;
      meta_kvs = [];
      seen_desc = Hashtbl.create 8;
      descs_rev = [];
      sealed = Queue.create ();
      tail_seg =
        (* replaced by load_segments *)
        { s_base = 0; s_path = ""; s_count = 0; s_size = 0; s_index = []
        ; s_sealed_at = 0. };
      tail_fd = Unix.stdin;
      tail_off = 0;
      durable_ = 0;
      unsynced = 0;
      dirty = false;
      truncated = 0;
      comp_raw = 0;
      comp_stored = 0;
      inflates = 0;
      zcache = None;
      closed = false;
      wbuf = Bytes.create 4096;
    }
  in
  (try load_meta t with Exit -> ());
  open_meta_append t;
  load_segments t;
  (* Everything that survived recovery is on disk by definition. *)
  t.durable_ <- t.tail_off;
  Log.debug (fun m ->
      m "stream %S: opened at offset %d (%d segments%s)" t.name t.tail_off
        (segments t)
        (if t.truncated > 0 then
           Printf.sprintf ", %d torn bytes truncated" t.truncated
         else ""));
  t

let streams cfg =
  if not (Sys.file_exists cfg.root) then []
  else
    Sys.readdir cfg.root |> Array.to_list
    |> List.filter (fun n ->
           Sys.is_directory (Filename.concat cfg.root n)
           && Sys.file_exists (Filename.concat (Filename.concat cfg.root n) "meta.log"))
    |> List.filter_map unsanitize
    |> List.sort compare
