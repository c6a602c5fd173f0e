(** Tests for the durable per-stream store: segmented append-only logs
    with CRC-checked framing, sparse offset indexes, fsync policies,
    torn-tail recovery and retention (doc/STORE.md). *)

module Store = Omf_store.Store

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let with_root f =
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "omf-store-%d-%d" (Unix.getpid ()) (Random.int 1000000))
  in
  let rec rm path =
    match (Unix.lstat path).Unix.st_kind with
    | Unix.S_DIR ->
      Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    | _ -> Sys.remove path
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  Fun.protect ~finally:(fun () -> rm root) (fun () -> f root)

let cfg ?(segment_bytes = 256) ?(fsync = Store.Never) ?(retain_segments = 0)
    ?(retain_bytes = 0) ?(retain_age = 0.0) ?(compress = false) root =
  { (Store.default_config ~root) with
    segment_bytes
  ; index_every = 4
  ; fsync
  ; retain_segments
  ; retain_bytes
  ; retain_age
  ; compress }

let frame seq = Bytes.of_string (Printf.sprintf "Mevent-%06d" seq)

let read_all st from =
  let acc = ref [] in
  Store.iter_from st from (fun off f -> acc := (off, Bytes.to_string f) :: !acc);
  List.rev !acc

(* ------------------------------------------------------------------ *)

let test_append_roll_iter () =
  with_root (fun root ->
      let st = Store.open_stream (cfg root) "flights" in
      let n = 100 in
      for seq = 0 to n - 1 do
        check int "offset is dense" seq (Store.append st (frame seq))
      done;
      check int "tail" n (Store.tail st);
      check bool "rolled into several segments" true (Store.segments st > 1);
      let got = read_all st 0 in
      check int "every frame back" n (List.length got);
      List.iteri
        (fun i (off, body) ->
          check int "offset in order" i off;
          check string "body intact" (Bytes.to_string (frame i)) body)
        got;
      (* reading from the middle lands exactly there, across segments *)
      let mid = read_all st 57 in
      check int "suffix length" (n - 57) (List.length mid);
      check int "suffix starts at 57" 57 (fst (List.hd mid));
      Store.close st)

let test_reopen_recovers () =
  with_root (fun root ->
      let st = Store.open_stream (cfg root) "flights" in
      Store.set_schema st "<schema/>";
      ignore (Store.append_descriptor st (Bytes.of_string "Ddescriptor-1"));
      for seq = 0 to 19 do
        ignore (Store.append st (frame seq))
      done;
      Store.close st;
      let st = Store.open_stream (cfg root) "flights" in
      check int "tail recovered" 20 (Store.tail st);
      check int "recovery makes everything durable" 20 (Store.durable st);
      check (Alcotest.option string) "schema recovered" (Some "<schema/>")
        (Store.schema st);
      check int "descriptors recovered" 1 (List.length (Store.descriptors st));
      (* appending continues the dense numbering *)
      check int "next offset" 20 (Store.append st (frame 20));
      check int "all frames readable" 21 (List.length (read_all st 0));
      Store.close st)

let test_descriptor_dedupe () =
  with_root (fun root ->
      let st = Store.open_stream (cfg root) "flights" in
      let d = Bytes.of_string "Ddescriptor-1" in
      check bool "first write" true (Store.append_descriptor st d);
      check bool "identical content skipped" false (Store.append_descriptor st d);
      check bool "different content written" true
        (Store.append_descriptor st (Bytes.of_string "Ddescriptor-2"));
      Store.close st;
      let st = Store.open_stream (cfg root) "flights" in
      check bool "dedupe survives reopen" false (Store.append_descriptor st d);
      check int "two descriptors stored" 2 (List.length (Store.descriptors st));
      Store.close st)

let test_torn_tail_truncated () =
  with_root (fun root ->
      let st = Store.open_stream (cfg ~segment_bytes:100_000 root) "flights" in
      for seq = 0 to 9 do
        ignore (Store.append st (frame seq))
      done;
      Store.close st;
      (* tear the last record: drop 3 bytes off the tail segment, as a
         crash mid-write would *)
      let seg =
        Filename.concat (Filename.concat root "flights")
          (Printf.sprintf "%020d.seg" 0)
      in
      let size = (Unix.stat seg).Unix.st_size in
      let fd = Unix.openfile seg [ Unix.O_WRONLY ] 0 in
      Unix.ftruncate fd (size - 3);
      Unix.close fd;
      let st = Store.open_stream (cfg ~segment_bytes:100_000 root) "flights" in
      check int "torn record dropped" 9 (Store.tail st);
      check bool "truncation accounted" true (Store.truncated_bytes st > 0);
      check int "surviving frames intact" 9 (List.length (read_all st 0));
      (* the torn offset is reused, not skipped *)
      check int "offset 9 reassigned" 9 (Store.append st (frame 9));
      check int "all ten read back" 10 (List.length (read_all st 0));
      Store.close st)

let test_corrupt_sealed_record_detected () =
  with_root (fun root ->
      (* many small segments, so segment 0 is sealed (a corrupt TAIL
         record is torn-tail territory and silently truncated instead) *)
      let st = Store.open_stream (cfg root) "flights" in
      for seq = 0 to 99 do
        ignore (Store.append st (frame seq))
      done;
      check bool "several segments" true (Store.segments st > 2);
      Store.close st;
      (* flip one byte mid-record in the sealed first segment: the
         record's CRC must catch it on read *)
      let seg =
        Filename.concat (Filename.concat root "flights")
          (Printf.sprintf "%020d.seg" 0)
      in
      let fd = Unix.openfile seg [ Unix.O_RDWR ] 0 in
      let pos = ((Unix.stat seg).Unix.st_size / 2) + 12 in
      ignore (Unix.lseek fd pos Unix.SEEK_SET);
      let b = Bytes.create 1 in
      ignore (Unix.read fd b 0 1);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
      ignore (Unix.lseek fd pos Unix.SEEK_SET);
      ignore (Unix.write fd b 0 1);
      Unix.close fd;
      let st = Store.open_stream (cfg root) "flights" in
      check int "recovery still trusts sealed structure" 100 (Store.tail st);
      (match read_all st 0 with
      | _ -> Alcotest.fail "expected Store_error on CRC mismatch"
      | exception Store.Store_error _ -> ());
      Store.close st)

let test_retention () =
  with_root (fun root ->
      let st =
        Store.open_stream (cfg ~retain_segments:3 root) "flights"
      in
      for seq = 0 to 99 do
        ignore (Store.append st (frame seq))
      done;
      check bool "segments capped" true (Store.segments st <= 3);
      check bool "oldest advanced" true (Store.oldest st > 0);
      check int "tail unaffected" 100 (Store.tail st);
      (* reads clamp up to the oldest retained offset *)
      let got = read_all st 0 in
      check int "first readable = oldest" (Store.oldest st) (fst (List.hd got));
      check int "suffix complete" (100 - Store.oldest st) (List.length got);
      (* retention never deletes the tail segment *)
      check bool "tail survives" true (Store.segments st >= 1);
      Store.close st)

let test_fsync_policies () =
  (* string round-trips *)
  List.iter
    (fun (s, p) ->
      (match Store.fsync_policy_of_string s with
      | Ok q ->
        check string "round-trip" (Store.fsync_policy_to_string p)
          (Store.fsync_policy_to_string q)
      | Error m -> Alcotest.failf "%s: %s" s m);
      check string "to_string" s (Store.fsync_policy_to_string p))
    [ ("never", Store.Never)
    ; ("every=8", Store.Every_n 8)
    ; ("interval=0.5", Store.Interval 0.5) ];
  check bool "garbage rejected" true
    (Result.is_error (Store.fsync_policy_of_string "sometimes"));
  (* Every_n advances durable on the boundary *)
  with_root (fun root ->
      let st =
        Store.open_stream
          (cfg ~segment_bytes:100_000 ~fsync:(Store.Every_n 4) root)
          "flights"
      in
      for seq = 0 to 2 do
        ignore (Store.append st (frame seq))
      done;
      check int "below the boundary: not yet durable" 0 (Store.durable st);
      ignore (Store.append st (frame 3));
      check int "boundary fsync" 4 (Store.durable st);
      (* an explicit sync drains stragglers *)
      ignore (Store.append st (frame 4));
      check int "sync returns durable" 5 (Store.sync st);
      Store.close st)

let test_stream_names () =
  with_root (fun root ->
      let c = cfg root in
      let open_close name =
        let st = Store.open_stream c name in
        ignore (Store.append st (frame 0));
        Store.close st
      in
      (* names with characters unsafe in file systems round-trip *)
      let names = [ "flights"; "EU/ops:alerts"; "weather.v2" ] in
      List.iter open_close names;
      check
        (Alcotest.slist string compare)
        "streams listed under their wire names" names (Store.streams c);
      (* and reopen under the original name *)
      let st = Store.open_stream c "EU/ops:alerts" in
      check string "stream name preserved" "EU/ops:alerts" (Store.stream st);
      check int "its frame is there" 1 (Store.tail st);
      Store.close st)

(* ------------------------------------------------------------------ *)
(* Compressed sealed segments: one inflate per segment per replay       *)
(* ------------------------------------------------------------------ *)

(* a frame with some per-record variety, so segments compress but not
   to nothing *)
let zframe seq =
  Bytes.of_string
    (Printf.sprintf "Mevent-%06d|host-%d|%s" seq (seq mod 13)
       (String.make (seq mod 29) (Char.chr (97 + (seq mod 26)))))

(* the relay's replay loop: [chunk]-record ranges from [from] to the
   tail, each body copied out of its slice *)
let replay_chunked ?(chunk = 64) st from =
  let acc = ref [] in
  let next = ref (max from (Store.oldest st)) in
  while !next < Store.tail st do
    let upto = min (!next + chunk) (Store.tail st) in
    Store.iter_range_slices st !next upto (fun off body ->
        acc := (off, Omf_util.Slice.to_string body) :: !acc;
        next := off + 1)
  done;
  List.rev !acc

let compressed_segments root stream =
  let dir = Filename.concat root stream in
  Array.fold_left
    (fun n name ->
      if Filename.check_suffix name ".seg" then begin
        let ic = open_in_bin (Filename.concat dir name) in
        let magic = really_input_string ic 8 in
        close_in ic;
        if magic = "OMFSEGZ1" then n + 1 else n
      end
      else n)
    0 (Sys.readdir dir)

let test_replay_inflates_once_per_segment () =
  with_root (fun root ->
      let n = 1500 in
      let z = Store.open_stream (cfg ~segment_bytes:4096 ~compress:true root) "z" in
      let p = Store.open_stream (cfg ~segment_bytes:4096 root) "p" in
      for seq = 0 to n - 1 do
        ignore (Store.append z (zframe seq));
        ignore (Store.append p (zframe seq))
      done;
      let k = compressed_segments root "z" in
      check bool "several compressed sealed segments" true (k >= 4);
      check int "every sealed segment compressed" (Store.segments z - 1) k;
      check int "sealing inflates nothing" 0 (Store.inflates z);
      let want = replay_chunked p 0 in
      check int "plain store complete" n (List.length want);
      let got = replay_chunked z 0 in
      check bool "compressed replay = plain replay" true (got = want);
      check int "one inflate per compressed segment" k (Store.inflates z);
      (* a second replay walks the segments again: k more *)
      check bool "second replay identical" true (replay_chunked ~chunk:7 z 0 = want);
      check int "k more inflates" (2 * k) (Store.inflates z);
      (* a range that starts behind the cursor rewalks the cached
         region instead of inflating again *)
      let range a b =
        let acc = ref [] in
        Store.iter_range_slices z a b (fun off body ->
            acc := (off, Omf_util.Slice.to_string body) :: !acc);
        List.rev !acc
      in
      let slice a b = List.filteri (fun i _ -> i >= a && i < b) want in
      let before = Store.inflates z in
      check bool "range ahead" true (range 10 20 = slice 10 20);
      check bool "range behind the cursor" true (range 2 5 = slice 2 5);
      check bool "range ahead again" true (range 5 30 = slice 5 30);
      check int "one inflate for the three" (before + 1) (Store.inflates z);
      (* two readers in different segments alternate the one entry:
         each range inflates again — correct, just not cached *)
      let before = Store.inflates z in
      for i = 0 to 3 do
        let b = (n / 2) + i in
        check bool "reader B" true (range b (b + 1) = slice b (b + 1));
        check bool "reader A" true (range i (i + 1) = slice i (i + 1))
      done;
      check int "alternating readers inflate per range" (before + 8)
        (Store.inflates z);
      (* the bytes API reads through the same cache *)
      check bool "iter_from agrees" true (read_all z 0 = read_all p 0);
      Store.close z;
      Store.close p)

let test_retention_drops_cached_segment () =
  with_root (fun root ->
      let z =
        Store.open_stream
          (cfg ~segment_bytes:4096 ~compress:true ~retain_segments:3 root)
          "z"
      in
      let seq = ref 0 in
      let append () =
        ignore (Store.append z (zframe !seq));
        incr seq
      in
      while Store.segments z < 3 do
        append ()
      done;
      (* hold slices into the oldest segment, so it is the cached one *)
      let oldest = Store.oldest z in
      let held = ref [] in
      Store.iter_range_slices z oldest (oldest + 16) (fun off body ->
          held := (off, body) :: !held);
      check int "cached the oldest segment" 1 (Store.inflates z);
      (* roll until retention deletes it *)
      while Store.oldest z = oldest do
        append ()
      done;
      List.iter
        (fun (off, body) ->
          check string "held slices survive the drop"
            (Bytes.to_string (zframe off))
            (Omf_util.Slice.to_string body))
        !held;
      let got = replay_chunked z 0 in
      check int "replay clamps to the new oldest" (Store.oldest z)
        (fst (List.hd got));
      check int "suffix complete" (Store.tail z - Store.oldest z)
        (List.length got);
      List.iter
        (fun (off, body) ->
          check string "record intact" (Bytes.to_string (zframe off)) body)
        got;
      Store.close z)

let () =
  Alcotest.run "store"
    [ ( "store",
        [ Alcotest.test_case "append, roll, iterate" `Quick test_append_roll_iter
        ; Alcotest.test_case "reopen recovers tail + meta" `Quick
            test_reopen_recovers
        ; Alcotest.test_case "descriptor dedupe" `Quick test_descriptor_dedupe
        ; Alcotest.test_case "torn tail truncated, offset reused" `Quick
            test_torn_tail_truncated
        ; Alcotest.test_case "sealed-record corruption detected" `Quick
            test_corrupt_sealed_record_detected
        ; Alcotest.test_case "retention drops old segments" `Quick
            test_retention
        ; Alcotest.test_case "fsync policies" `Quick test_fsync_policies
        ; Alcotest.test_case "stream name sanitisation" `Quick test_stream_names
        ; Alcotest.test_case "chunked replay inflates once per segment" `Quick
            test_replay_inflates_once_per_segment
        ; Alcotest.test_case "retention drops the cached segment" `Quick
            test_retention_drops_cached_segment
        ] ) ]
