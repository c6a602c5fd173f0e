(** Tests for the format server: global format ids over real TCP,
    receiver-side resolution, idempotency, and failure behaviour. *)

open Omf_machine
open Omf_pbio.Pbio
module Fs = Omf_formatserver.Format_server
module Fx = Omf_fixtures.Paper_structs

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let value_testable =
  Alcotest.testable (fun ppf v -> Fmt.string ppf (Value.to_string v)) Value.equal

let with_server f =
  let server = Fs.Server.start ~port:0 () in
  Fun.protect ~finally:(fun () -> Fs.Server.shutdown server) (fun () -> f server)

let test_register_and_fetch () =
  with_server (fun server ->
      let client = Fs.Client.connect ~port:server.Fs.Server.port () in
      let reg = Registry.create Abi.x86_64 in
      let a, b, _, _ = Fx.register_all reg in
      let id_a = Fs.Client.register client a in
      let id_b = Fs.Client.register client b in
      check bool "distinct ids" true (id_a <> id_b);
      check int "server size" 2 (Fs.Server.size server);
      (match Fs.Client.fetch client id_a with
      | Some blob ->
        check Alcotest.string "descriptor survives"
          (Format.layout_signature a)
          (Format.layout_signature (Format_codec.decode blob))
      | None -> Alcotest.fail "fetch failed");
      check bool "unknown id is None" true (Fs.Client.fetch client 9999 = None);
      Fs.Client.close client)

let test_registration_idempotent () =
  with_server (fun server ->
      (* two different clients registering the same format get the same id *)
      let reg = Registry.create Abi.sparc_32 in
      let a, _, _, _ = Fx.register_all reg in
      let c1 = Fs.Client.connect ~port:server.Fs.Server.port () in
      let c2 = Fs.Client.connect ~port:server.Fs.Server.port () in
      let id1 = Fs.Client.register c1 a in
      let id2 = Fs.Client.register c2 a in
      check int "same descriptor, same id" id1 id2;
      check int "one entry" 1 (Fs.Server.size server);
      (* the same logical format under a different ABI is a different
         descriptor, hence a different id *)
      let reg64 = Registry.create Abi.x86_64 in
      let a64, _, _, _ = Fx.register_all reg64 in
      let id3 = Fs.Client.register c1 a64 in
      check bool "different layout, different id" true (id3 <> id1);
      Fs.Client.close c1;
      Fs.Client.close c2)

let test_end_to_end_with_global_ids () =
  (* sender and receiver never exchange descriptors directly: the sender
     stamps global ids, the receiver resolves them via the server *)
  with_server (fun server ->
      let sender_client = Fs.Client.connect ~port:server.Fs.Server.port () in
      let sreg = Registry.create Abi.x86_64 in
      let sfmt = Registry.register sreg Fx.decl_b in
      let gid = Fs.Client.register sender_client sfmt in
      let smem = Memory.create Abi.x86_64 in
      let addr = Native.store smem sfmt Fx.value_b in
      let msg = message ~id:gid smem sfmt addr in

      let receiver_client = Fs.Client.connect ~port:server.Fs.Server.port () in
      let rreg = Registry.create Abi.sparc_32 in
      ignore (Registry.register rreg Fx.decl_b);
      let receiver =
        Receiver.create
          ~resolve:(Fs.Client.resolver receiver_client)
          rreg (Memory.create Abi.sparc_32)
      in
      let _, received = Receiver.receive_value receiver msg in
      check value_testable "value via format server"
        (Native.load smem sfmt addr) received;
      (* second message: resolved format is cached, no further lookups *)
      let _, received2 = Receiver.receive_value receiver msg in
      check value_testable "cached resolution" received received2;
      Fs.Client.close sender_client;
      Fs.Client.close receiver_client)

let test_unknown_id_fails_cleanly () =
  with_server (fun server ->
      let client = Fs.Client.connect ~port:server.Fs.Server.port () in
      let sreg = Registry.create Abi.x86_64 in
      let sfmt = Registry.register sreg Fx.decl_a in
      let smem = Memory.create Abi.x86_64 in
      let addr = Native.store smem sfmt Fx.value_a in
      let msg = message ~id:424242 smem sfmt addr in
      let rreg = Registry.create Abi.x86_64 in
      ignore (Registry.register rreg Fx.decl_a);
      let receiver =
        Receiver.create ~resolve:(Fs.Client.resolver client) rreg
          (Memory.create Abi.x86_64)
      in
      (try
         ignore (Receiver.receive receiver msg);
         Alcotest.fail "expected Unknown_format"
       with Unknown_format _ -> ());
      Fs.Client.close client)

let test_server_rejects_garbage_descriptor () =
  with_server (fun server ->
      (* speak the protocol by hand with a corrupt blob *)
      let link = Omf_transport.Tcp.connect ~port:server.Fs.Server.port () in
      Omf_transport.Link.send link (Bytes.of_string "Rnot-a-descriptor");
      (match Omf_transport.Link.recv link with
      | Some reply -> check Alcotest.char "rejected" 'N' (Bytes.get reply 0)
      | None -> Alcotest.fail "no reply");
      check int "nothing registered" 0 (Fs.Server.size server);
      Omf_transport.Link.close link)

let test_malformed_register_keeps_serving () =
  with_server (fun server ->
      let port = server.Fs.Server.port in
      let link = Omf_transport.Tcp.connect ~port () in
      Omf_transport.Link.send link
        (Bytes.of_string ("R" ^ Omf_testkit.Descriptors.duplicate_field ()));
      (match Omf_transport.Link.recv link with
      | Some reply -> check Alcotest.char "rejected" 'N' (Bytes.get reply 0)
      | None -> Alcotest.fail "no reply to the malformed registration");
      Omf_transport.Link.close link;
      (* the registry lock was released: a fresh client is still served *)
      let fresh = Omf_transport.Tcp.connect ~port () in
      Omf_transport.Link.send fresh (Bytes.of_string "G\000\000\000\001");
      (match Omf_transport.Link.recv fresh with
      | Some reply -> check Alcotest.char "unknown id" 'N' (Bytes.get reply 0)
      | None -> Alcotest.fail "lookup got a closed connection");
      check int "nothing registered" 0 (Fs.Server.size server);
      Omf_transport.Link.close fresh)

let test_server_down_degrades () =
  let server = Fs.Server.start ~port:0 () in
  let port = server.Fs.Server.port in
  let client = Fs.Client.connect ~port () in
  let reg = Registry.create Abi.x86_64 in
  let a, _, _, _ = Fx.register_all reg in
  let gid = Fs.Client.register client a in
  Fs.Server.shutdown server;
  Thread.delay 0.05;
  (* cached entries keep working *)
  check bool "cached fetch still works" true (Fs.Client.fetch client gid <> None);
  (* uncached lookups degrade to None (Unknown_format at the receiver),
     not a crash *)
  check bool "uncached fetch degrades to None" true
    (Fs.Client.resolver client 777 = None);
  Fs.Client.close client

let () =
  Alcotest.run "formatserver"
    [ ( "protocol",
        [ Alcotest.test_case "register and fetch" `Quick test_register_and_fetch
        ; Alcotest.test_case "registration idempotent" `Quick
            test_registration_idempotent
        ; Alcotest.test_case "garbage descriptors rejected" `Quick
            test_server_rejects_garbage_descriptor
        ; Alcotest.test_case "malformed registration keeps serving" `Quick
            test_malformed_register_keeps_serving ] )
    ; ( "end-to-end",
        [ Alcotest.test_case "messages with global ids" `Quick
            test_end_to_end_with_global_ids
        ; Alcotest.test_case "unknown id fails cleanly" `Quick
            test_unknown_id_fails_cleanly
        ; Alcotest.test_case "server death degrades gracefully" `Quick
            test_server_down_degrades ] ) ]
