module Bb = Engine.Bytebuf
module Ct = Circuit.Ct

(* Build a circuit through the Padico facade and check the bound adapters
   and messaging semantics. *)

let collect_msgs ct inbox =
  Ct.set_recv ct (fun inc ->
      let tag = Ct.unpack_int inc in
      let payload = Ct.unpack inc (Ct.remaining inc) in
      inbox := (Ct.incoming_src inc, tag, payload) :: !inbox)

let send ct ~dst ~tag payload =
  let out = Ct.begin_packing ct ~dst in
  Ct.pack_int out tag;
  Ct.pack out payload;
  Ct.end_packing out

let test_pack_unpack_cursor () =
  let grid, a, b, _ = Tutil.grid_pair Simnet.Presets.myrinet2000 in
  let cts = Padico.circuit grid ~name:"c" [ a; b ] in
  let seen = ref None in
  Ct.set_recv cts.(1) (fun inc ->
      let x = Ct.unpack_int inc in
      let s = Ct.unpack inc 5 in
      let y = Ct.unpack_int inc in
      Tutil.check_int "nothing left" 0 (Ct.remaining inc);
      seen := Some (x, Bb.to_string s, y));
  let out = Ct.begin_packing cts.(0) ~dst:1 in
  Ct.pack_int out 123;
  Ct.pack out (Bb.of_string "hello");
  Ct.pack_int out (-7);
  Ct.end_packing out;
  Tutil.run_grid grid;
  match !seen with
  | Some (123, "hello", -7) -> ()
  | _ -> Alcotest.fail "cursor mismatch"

let test_madio_adapter_on_san () =
  let grid, a, b, _ = Tutil.grid_pair Simnet.Presets.myrinet2000 in
  let cts = Padico.circuit grid ~name:"san" [ a; b ] in
  Tutil.check_string "link uses madio" "madio"
    (Ct.link_adapter_name cts.(0) ~dst:1);
  let inbox = ref [] in
  collect_msgs cts.(1) inbox;
  send cts.(0) ~dst:1 ~tag:9 (Tutil.pattern_buf ~seed:1 40_000);
  Tutil.run_grid grid;
  match !inbox with
  | [ (0, 9, payload) ] ->
    Tutil.check_int "payload size" 40_000 (Bb.length payload)
  | _ -> Alcotest.fail "expected one message"

let test_sysio_adapter_cross_paradigm () =
  let grid, a, b, _ = Tutil.grid_pair Simnet.Presets.ethernet100 in
  let cts = Padico.circuit grid ~name:"lan" [ a; b ] in
  Tutil.check_string "link uses sysio" "sysio"
    (Ct.link_adapter_name cts.(0) ~dst:1);
  let inbox = ref [] in
  collect_msgs cts.(1) inbox;
  (* Message boundaries must survive the TCP byte stream. *)
  let m1 = Tutil.pattern_buf ~seed:2 10_000 in
  let m2 = Tutil.pattern_buf ~seed:3 35 in
  send cts.(0) ~dst:1 ~tag:1 m1;
  send cts.(0) ~dst:1 ~tag:2 m2;
  Tutil.run_grid grid;
  match List.rev !inbox with
  | [ (0, 1, p1); (0, 2, p2) ] ->
    Tutil.check_bool "first intact" true (Bb.equal p1 m1);
    Tutil.check_bool "second intact" true (Bb.equal p2 m2)
  | l -> Alcotest.failf "expected 2 messages, got %d" (List.length l)

let test_loopback_adapter_same_node () =
  let grid = Padico.create () in
  let a = Padico.add_node grid "a" in
  ignore (Padico.add_segment grid Simnet.Presets.ethernet100 [ a ]);
  let cts = Padico.circuit grid ~name:"self" [ a; a ] in
  Tutil.check_string "intra-node link" "loopback"
    (Ct.link_adapter_name cts.(0) ~dst:1);
  let inbox = ref [] in
  collect_msgs cts.(1) inbox;
  send cts.(0) ~dst:1 ~tag:5 (Bb.of_string "local");
  Tutil.run_grid grid;
  match !inbox with
  | [ (0, 5, p) ] -> Tutil.check_string "payload" "local" (Bb.to_string p)
  | _ -> Alcotest.fail "expected one local message"

let test_pstream_vlink_adapter_on_wan () =
  let prefs =
    { Selector.Prefs.default with Selector.Prefs.pstream_on_wan = true;
      cipher_untrusted = false }
  in
  let grid, a, b, _ = Tutil.grid_pair ~prefs Simnet.Presets.vthd in
  let cts = Padico.circuit grid ~name:"wan" [ a; b ] in
  Tutil.check_string "wan link over vlink (pstream)" "vlink"
    (Ct.link_adapter_name cts.(0) ~dst:1);
  let inbox = ref [] in
  collect_msgs cts.(1) inbox;
  let msg = Tutil.pattern_buf ~seed:4 500_000 in
  send cts.(0) ~dst:1 ~tag:3 msg;
  Tutil.run_grid grid;
  match !inbox with
  | [ (0, 3, p) ] -> Tutil.check_bool "big message intact" true (Bb.equal p msg)
  | _ -> Alcotest.fail "expected one message over the striped WAN link"

(* Each circuit reserves 1 + n^2 TCP ports, so once a grid has built a
   256-rank circuit the next one listens, dials and stripes on ports past
   16 bits. Its WAN link must still carry data, over plain SysIO and over
   parallel streams. *)
let test_second_circuit_past_16_bit_ports () =
  List.iter
    (fun pstream ->
       let prefs =
         { Selector.Prefs.default with Selector.Prefs.pstream_on_wan = pstream;
           cipher_untrusted = false }
       in
       let grid, a, b, _ = Tutil.grid_pair ~prefs Simnet.Presets.vthd in
       ignore (Padico.circuit grid ~name:"wide" (List.init 256 (fun _ -> a)));
       let cts = Padico.circuit grid ~name:"far" [ a; b ] in
       Tutil.check_string "second circuit's WAN adapter"
         (if pstream then "vlink" else "sysio")
         (Ct.link_adapter_name cts.(0) ~dst:1);
       let inbox = ref [] in
       collect_msgs cts.(1) inbox;
       let msg = Tutil.pattern_buf ~seed:9 20_000 in
       send cts.(0) ~dst:1 ~tag:7 msg;
       Tutil.run_grid grid;
       (match !inbox with
        | [ (0, 7, p) ] ->
          Tutil.check_bool "message intact" true (Bb.equal p msg)
        | _ -> Alcotest.fail "expected one message on the second circuit");
       Padico.reset ())
    [ false; true ]

let test_mixed_adapters_one_circuit () =
  (* The paper: "a given instance of Circuit can use different adapters for
     different links": 2-cluster grid, SAN inside, WAN between. *)
  let grid, a1, a2, b1, _b2 =
    Tutil.two_clusters ~wan:Simnet.Presets.vthd ()
  in
  let cts = Padico.circuit grid ~name:"mixed" [ a1; a2; b1 ] in
  Tutil.check_string "intra-cluster is madio" "madio"
    (Ct.link_adapter_name cts.(0) ~dst:1);
  Tutil.check_string "inter-cluster is sysio" "sysio"
    (Ct.link_adapter_name cts.(0) ~dst:2);
  let inbox1 = ref [] and inbox2 = ref [] in
  collect_msgs cts.(1) inbox1;
  collect_msgs cts.(2) inbox2;
  send cts.(0) ~dst:1 ~tag:1 (Bb.of_string "fast");
  send cts.(0) ~dst:2 ~tag:2 (Bb.of_string "far");
  Tutil.run_grid grid;
  Tutil.check_int "san got it" 1 (List.length !inbox1);
  Tutil.check_int "wan got it" 1 (List.length !inbox2)

let test_bidirectional_traffic () =
  let grid, a, b, _ = Tutil.grid_pair Simnet.Presets.myrinet2000 in
  let cts = Padico.circuit grid ~name:"bidir" [ a; b ] in
  let in0 = ref [] and in1 = ref [] in
  collect_msgs cts.(0) in0;
  collect_msgs cts.(1) in1;
  for i = 1 to 5 do
    send cts.(0) ~dst:1 ~tag:i (Bb.create 100);
    send cts.(1) ~dst:0 ~tag:(10 + i) (Bb.create 100)
  done;
  Tutil.run_grid grid;
  Tutil.check_int "rank1 got 5" 5 (List.length !in1);
  Tutil.check_int "rank0 got 5" 5 (List.length !in0);
  Tutil.check_int "sent counters" 5 (Ct.messages_sent cts.(0));
  Tutil.check_int "recv counters" 5 (Ct.messages_received cts.(0))

let test_ordering_per_link () =
  let grid, a, b, _ = Tutil.grid_pair Simnet.Presets.myrinet2000 in
  let cts = Padico.circuit grid ~name:"order" [ a; b ] in
  let tags = ref [] in
  Ct.set_recv cts.(1) (fun inc -> tags := Ct.unpack_int inc :: !tags);
  for i = 1 to 20 do
    send cts.(0) ~dst:1 ~tag:i (Bb.create 8)
  done;
  Tutil.run_grid grid;
  Alcotest.(check (list int)) "fifo per link" (List.init 20 (fun i -> i + 1))
    (List.rev !tags)

let test_unbound_link_buffers () =
  (* Messages sent before set_link must be delivered after binding. *)
  let grid, a, b, _ = Tutil.grid_pair Simnet.Presets.myrinet2000 in
  let group = [| a; b |] in
  let c0 = Ct.create ~group ~rank:0 ~name:"late" in
  let c1 = Ct.create ~group ~rank:1 ~name:"late" in
  let inbox = ref [] in
  collect_msgs c1 inbox;
  send c0 ~dst:1 ~tag:77 (Bb.of_string "early");
  (* Bind afterwards. *)
  let m0 = Padico.madio grid a (Option.get (Simnet.Net.best_link (Padico.net grid) a b)) in
  let m1 = Padico.madio grid b (Option.get (Simnet.Net.best_link (Padico.net grid) a b)) in
  Circuit.Ct_madio.bind c0 m0 ~lchannel_id:900 ~ranks:[ 1 ];
  Circuit.Ct_madio.bind c1 m1 ~lchannel_id:900 ~ranks:[ 0 ];
  Tutil.run_grid grid;
  match !inbox with
  | [ (0, 77, p) ] -> Tutil.check_string "buffered then sent" "early" (Bb.to_string p)
  | _ -> Alcotest.fail "expected the buffered message"

let test_errors () =
  let grid, a, b, _ = Tutil.grid_pair Simnet.Presets.myrinet2000 in
  let cts = Padico.circuit grid ~name:"err" [ a; b ] in
  Alcotest.check_raises "bad rank"
    (Invalid_argument "Ct.begin_packing: rank out of range") (fun () ->
      ignore (Ct.begin_packing cts.(0) ~dst:2));
  let out = Ct.begin_packing cts.(0) ~dst:1 in
  Ct.pack out (Bb.create 1);
  Ct.end_packing out;
  Alcotest.check_raises "double end"
    (Invalid_argument "Ct.end_packing: message already sent") (fun () ->
      Ct.end_packing out);
  (* A circuit created without binding adapters must say which link is
     unbound, not leak a bare Not_found. *)
  let bare = Ct.create ~group:[| a; b |] ~rank:0 ~name:"unbound" in
  Alcotest.check_raises "unbound link"
    (Invalid_argument
       "Ct.link_adapter_name: circuit unbound has no adapter bound for the \
        link from rank 0 to rank 1")
    (fun () -> ignore (Ct.link_adapter_name bare ~dst:1));
  Tutil.run_grid grid

(* ---------- link choice ---------- *)

module Net = Simnet.Net
module Node = Simnet.Node
module Segment = Simnet.Segment
module Linkmodel = Simnet.Linkmodel

(* The pair rule stated over [Net.links_between] (segments both ends
   share, by decreasing bandwidth, stable over attachment order): the
   same node is loopback; else the first SAN (MadIO, or SysIO streams on
   the host backend); else the best link, striped over parallel streams
   when it is a WAN and the preferences ask for it. *)
let reference_adapter grid ~pstream group i j =
  let a = group.(i) and b = group.(j) in
  if Node.uid a = Node.uid b then "loopback"
  else
    let class_ s = (Segment.model s).Linkmodel.class_ in
    let links = Net.links_between (Padico.net grid) a b in
    match List.find_opt (fun s -> class_ s = Linkmodel.San) links with
    | Some _ -> if Padico.backend grid = Padico.Sim then "madio" else "sysio"
    | None -> (
      match links with
      | s :: _ when class_ s = Linkmodel.Wan && pstream -> "vlink"
      | _ :: _ -> "sysio"
      | [] -> Alcotest.failf "no common network between ranks %d and %d" i j)

(* SAN islands (one node on two SANs of different speeds, one pair
   sharing two SANs), a gigabit LAN that out-runs one of the SANs, an
   Ethernet LAN tying the WAN's bandwidth on each side of it in insertion
   order, a WAN over everything, and two ranks on one node (one with no
   SAN: co-located members cannot share one MadIO logical channel). *)
let mixed_topology grid =
  let node = Padico.add_node grid in
  let a1 = node "a1" and a2 = node "a2" and a3 = node "a3" and m = node "m" in
  let b1 = node "b1" and b2 = node "b2" in
  let c1 = node "c1" and c2 = node "c2" and d = node "d" in
  let seg model name nodes =
    ignore (Padico.add_segment grid model ~name nodes)
  in
  seg Simnet.Presets.myrinet2000 "san0" [ a1; a2; a3; m ];
  seg Simnet.Presets.sci "san1" [ m; b1; b2 ];
  seg Simnet.Presets.sci "san2" [ a1; m ];
  seg Simnet.Presets.gigabit_lan "lan-fast" [ a1; b1; c1; m ];
  seg Simnet.Presets.ethernet100 "lan-tie-before" [ c1; c2 ];
  seg Simnet.Presets.vthd "wan" [ a1; a2; a3; m; b1; b2; c1; c2; d ];
  seg Simnet.Presets.ethernet100 "lan-tie-after" [ c2; d ];
  [ a1; a2; a3; m; b1; b2; c1; c2; d; d ]

let test_link_choice_equivalence () =
  List.iter
    (fun (backend, pstream) ->
       let label =
         Printf.sprintf "%s, pstream %b"
           (if backend = Padico.Sim then "sim" else "host")
           pstream
       in
       let prefs =
         { Selector.Prefs.default with Selector.Prefs.pstream_on_wan = pstream }
       in
       let grid = Padico.create ~prefs ~backend () in
       let nodes = mixed_topology grid in
       let group = Array.of_list nodes in
       let n = Array.length group in
       let cts = Padico.circuit grid ~name:"choice" nodes in
       let expected i j = reference_adapter grid ~pstream group i j in
       let check i j =
         Tutil.check_string
           (Printf.sprintf "%s: link %d -> %d" label i j)
           (expected i j)
           (Ct.link_adapter_name cts.(i) ~dst:j)
       in
       let accept_side i j = expected i j = "vlink" && i > j in
       (* Every link is bound at construction except the accepting end of
          a striped WAN pair, which binds when the connection arrives. *)
       for i = 0 to n - 1 do
         for j = 0 to n - 1 do
           if i <> j then
             if accept_side i j then
               match Ct.link_adapter_name cts.(i) ~dst:j with
               | exception Invalid_argument _ -> ()
               | name ->
                 Alcotest.failf "%s: link %d -> %d bound to %s before accept"
                   label i j name
             else check i j
         done
       done;
       if backend = Padico.Sim then begin
         (* Shared adapters must still route by destination: every rank
            sends one message to every other rank. Remote senders skip
            the co-located pair: the members of one node share its
            circuit port, so a remote stream cannot tell them apart. *)
         let shares_node j =
           Array.exists (fun r -> r <> j && Node.uid group.(r) = Node.uid group.(j))
             (Array.init n Fun.id)
         in
         let talks i j =
           i <> j
           && (Node.uid group.(i) = Node.uid group.(j) || not (shares_node j))
         in
         let inboxes = Array.init n (fun _ -> ref []) in
         Array.iteri (fun r ct -> collect_msgs ct inboxes.(r)) cts;
         for i = 0 to n - 1 do
           for j = 0 to n - 1 do
             if talks i j then
               send cts.(i) ~dst:j ~tag:((i * n) + j) (Bb.of_string "x")
           done
         done;
         Tutil.run_grid grid;
         for i = 0 to n - 1 do
           for j = 0 to n - 1 do
             if i <> j then check i j
           done
         done;
         Array.iteri
           (fun j inbox ->
              let got =
                List.sort compare
                  (List.map (fun (src, tag, _) -> (src, tag)) !inbox)
              in
              let want =
                List.filter_map
                  (fun i -> if talks i j then Some (i, (i * n) + j) else None)
                  (List.init n Fun.id)
              in
              Alcotest.(check (list (pair int int)))
                (Printf.sprintf "%s: rank %d inbox" label j)
                want got)
           inboxes
       end)
    [ (Padico.Sim, false); (Padico.Sim, true); (Padico.Host, false);
      (Padico.Host, true) ]

(* ---------- construction cost ---------- *)

(* Deterministic GC word counts, not wall time: words allocated while
   building the circuit, and words still live once it is built, both per
   ordered member pair. *)
let circuit_cost ~clusters ~nodes_per_cluster =
  let g = Scenario.Gridgen.generate ~clusters ~nodes_per_cluster () in
  let n = clusters * nodes_per_cluster in
  let pairs = float_of_int (n * (n - 1)) in
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let mi0, pr0, ma0 = Gc.counters () in
  let cts = Padico.circuit g.Scenario.Gridgen.grid ~name:"cost" g.nodes in
  (* [Gc.counters] only accounts minor words up to the last minor
     collection: flush, or a build that fits in the free minor heap
     reads as almost no allocation. *)
  Gc.minor ();
  let mi1, pr1, ma1 = Gc.counters () in
  Gc.full_major ();
  let live1 = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity (g, cts));
  let alloc_words = mi1 -. mi0 +. (ma1 -. ma0) -. (pr1 -. pr0) in
  let word = float_of_int (Sys.word_size / 8) in
  ( alloc_words /. pairs,
    float_of_int (live1 - live0) *. word /. pairs )

let test_construction_cost () =
  let small_alloc, _ = circuit_cost ~clusters:2 ~nodes_per_cluster:64 in
  Padico.reset ();
  let big_alloc, big_live = circuit_cost ~clusters:8 ~nodes_per_cluster:128 in
  Padico.reset ();
  if big_live > 48.0 then
    Alcotest.failf "live bytes per pair at 1024 ranks: %.1f > 48" big_live;
  if big_alloc > 1.5 *. small_alloc then
    Alcotest.failf
      "allocated words per pair grow with the group: %.2f at 1024 ranks vs \
       %.2f at 128 (bound 1.5x)"
      big_alloc small_alloc

let () =
  Alcotest.run "circuit"
    [ ("api",
       [ Alcotest.test_case "pack/unpack cursor" `Quick test_pack_unpack_cursor;
         Alcotest.test_case "errors" `Quick test_errors;
         Alcotest.test_case "unbound buffering" `Quick
           test_unbound_link_buffers ]);
      ("adapters",
       [ Alcotest.test_case "madio on SAN" `Quick test_madio_adapter_on_san;
         Alcotest.test_case "sysio cross-paradigm" `Quick
           test_sysio_adapter_cross_paradigm;
         Alcotest.test_case "loopback same node" `Quick
           test_loopback_adapter_same_node;
         Alcotest.test_case "pstream vlink on WAN" `Quick
           test_pstream_vlink_adapter_on_wan;
         Alcotest.test_case "mixed adapters" `Quick
           test_mixed_adapters_one_circuit;
         Alcotest.test_case "second circuit past 16-bit ports" `Quick
           test_second_circuit_past_16_bit_ports;
         Alcotest.test_case "link choice matches the pair rule" `Quick
           test_link_choice_equivalence ]);
      ("scale",
       [ Alcotest.test_case "construction cost per member pair" `Quick
           test_construction_cost ]);
      ("traffic",
       [ Alcotest.test_case "bidirectional" `Quick test_bidirectional_traffic;
         Alcotest.test_case "ordering" `Quick test_ordering_per_link ]);
    ]
