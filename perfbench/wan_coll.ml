(* wan-collectives: 1024 ranks in 8 Myrinet islands x 128 over one VTHD
   WAN (Gridgen.generate), one multilevel Group. Every rank runs the same
   rounds: barrier, 4 KB byte-xor allreduce, 4 KB bcast from a root that
   rotates inside island 0. Closed loop: each rank starts its next
   collective when its part of the previous one is done.

   An operation is one rank's completion of one collective; its latency
   is the rank's virtual time inside the call. A percentile is taken per
   round, over every rank's three operations, and the median over rounds
   is reported: one WAN frame lost and retransmitted delays a whole
   collective for hundreds of ranks, so a pooled p99 jumps by tens of
   milliseconds from seed to seed; the loss itself shows in
   simnet.wan_frames_lost. *)

module Bb = Engine.Bytebuf
module Group = Collectives.Group
module Gridgen = Scenario.Gridgen
module Spans = Meter.Spans
module Samples = Meter.Samples

let clusters = 8
let per_cluster = 128
let ranks = clusters * per_cluster
let payload = 4096
let rounds = 5

(* The bcast root moves to another rank of island 0 every round. The
   rotation is fixed: the seed drives payloads and the simulator's jitter
   and loss. *)
let root_stride = 17

let rep ~seed (h : Wl.hooks) =
  (* Inputs from the seed: each rank's allreduce contributions, the bcast
     payloads, and the references the results must match. *)
  let r = Wl.rng seed 0xc011 in
  let contrib =
    Array.init rounds (fun _ ->
        Array.init ranks (fun _ ->
            let b = Bb.create payload in
            Bb.fill_random b r;
            b))
  in
  let expect_xor =
    Array.map
      (fun parts ->
         let acc = Bytes.make payload '\000' in
         Array.iter
           (fun b ->
              for i = 0 to payload - 1 do
                Bytes.unsafe_set acc i
                  (Char.unsafe_chr (Char.code (Bytes.unsafe_get acc i) lxor Bb.get_u8 b i))
              done)
           parts;
         Bb.of_bytes acc)
      contrib
  in
  let roots = Array.init rounds (fun k -> (k * root_stride) mod per_cluster) in
  let bcast_data =
    Array.init rounds (fun _ ->
        let b = Bb.create payload in
        Bb.fill_random b r;
        b)
  in
  let t0 = Meter.now_ns () in
  let g =
    Spans.wrap "Gridgen.generate" (fun () ->
        Gridgen.generate ~seed ~clusters ~nodes_per_cluster:per_cluster ())
  in
  let topology_s = Meter.secs_since t0 in
  let grid = g.Gridgen.grid in
  let nodes = Array.of_list g.Gridgen.nodes in
  let tg = Meter.now_ns () in
  let groups =
    Spans.wrap "Group.create" (fun () ->
        Group.create grid ~name:"bench" g.Gridgen.nodes)
  in
  (* Lazy set-up: a barrier, an allreduce and a bcast from every root of
     the rotation bind each circuit link the timed rounds use, so first
     connects over the WAN stay out of the timed phase. *)
  let warm = ref 0 in
  let zero = Bb.create payload in
  Bb.fill_zero zero;
  Array.iteri
    (fun i node ->
       ignore
         (Padico.spawn grid node ~name:"warm" (fun () ->
              let gm = groups.(i) in
              Group.barrier gm;
              ignore (Group.allreduce gm ~op:Group.Bxor zero);
              Array.iter (fun root -> ignore (Group.bcast gm ~root zero)) roots;
              incr warm)))
    nodes;
  h.drive grid;
  if !warm <> ranks then failwith "wan-collectives: set-up barrier did not complete";
  let group_s = Meter.secs_since tg in
  let setup_s = Meter.secs_since t0 in
  let lat = Array.init rounds (fun _ -> Samples.create (ranks * 3)) in
  let done_ = ref 0 in
  let bad = ref 0 in
  let m0 = Group.wan_messages groups.(0) in
  h.timed_start grid;
  let t1 = Meter.now_ns () in
  Array.iteri
    (fun rank node ->
       let gm = groups.(rank) in
       ignore
         (Padico.spawn grid node ~name:"rank" (fun () ->
              let timed k name f =
                let op = (rank * 3 * rounds) + !done_ in
                let s = Spans.start ~op_id:op name in
                let t = Padico.now grid in
                (match f () with
                 | ok -> if not ok then incr bad
                 | exception Group.Failed _ -> incr bad);
                Samples.add lat.(k) (Wl.us_of_ns (Padico.now grid - t));
                incr done_;
                Spans.stop s
              in
              for k = 0 to rounds - 1 do
                timed k "Group.barrier" (fun () -> Group.barrier gm; true);
                timed k "Group.allreduce" (fun () ->
                    Bb.equal (Group.allreduce gm ~op:Group.Bxor contrib.(k).(rank))
                      expect_xor.(k));
                let root = roots.(k) in
                timed k "Group.bcast" (fun () ->
                    let buf = if rank = root then bcast_data.(k) else Bb.create 0 in
                    Bb.equal (Group.bcast gm ~root buf) bcast_data.(k))
              done)))
    nodes;
  h.drive grid;
  let wall_s = Meter.secs_since t1 in
  let vt = Padico.now grid in
  h.timed_end ();
  let ops = ranks * 3 * rounds in
  let failed = !bad + (ops - !done_) in
  let collectives = 3 * rounds in
  let wan_msgs = Group.wan_messages groups.(0) - m0 in
  let per_round = Array.map (fun l -> Samples.sorted [ l ]) lat in
  let pct p =
    let v = Array.map (fun s -> Meter.percentile s p) per_round in
    if Array.exists Option.is_none v then None
    else Some (Meter.median_of (Array.to_list (Array.map Option.get v)))
  in
  let p k = match pct k with Some v -> v | None -> 0.0 in
  { Wl.setup_s; wall_s; ops; failed; lat = Array.to_list lat; pct = Some pct;
    clock = `Virtual; extra = [];
    layer =
      [ ("coll.wan_msgs_per_op", float_of_int wan_msgs /. float_of_int collectives);
        ("setup.topology_s", topology_s);
        ("setup.group_s", group_s) ];
    digest = Printf.sprintf "%d %d %.17g %.17g" vt wan_msgs (p 50.0) (p 99.0) }
