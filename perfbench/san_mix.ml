(* san-mix: the paper's Myrinet-2000 pair with one arbitration point shared
   by three 64 B ping-pong clients — MPI (Circuit -> MadIO), VLink through
   the Vio personality (vl_madio) and omniORB4 CORBA — and one Mico 64 KB
   oneway bulk stream. Closed loop: each client sends its next request
   when the previous reply has arrived, after a seeded think time.

   Latency is RTT/2 in virtual µs; the bulk figure is Mico goodput in
   virtual MB/s while the ping-pongs run. *)

module Bb = Engine.Bytebuf
module Mpi = Mw_mpi.Mpi
module Orb = Mw_corba.Orb
module Cdr = Mw_corba.Cdr
module Vio = Personalities.Vio
module Spans = Meter.Spans
module Samples = Meter.Samples

let msg = 64
let iters = 3_000 (* round trips per ping-pong client *)
let bulk_chunk = 65_536
let bulk_count = 160
let vio_port = 4000
let omni_port = 3000
let mico_port = 3001

type api = { aname : string; lat : Samples.t; mutable bad : int }

let rep ~seed (h : Wl.hooks) =
  let t0 = Meter.now_ns () in
  let grid = Spans.wrap "Padico.create" (fun () -> Padico.create ~seed ()) in
  let a = Padico.add_node grid "a" in
  let b = Padico.add_node grid "b" in
  ignore (Padico.add_segment grid Simnet.Presets.myrinet2000 ~name:"myri" [ a; b ]);
  (* Servers: MPI echo, Vio echo, omniORB4 echo servant, Mico sink. *)
  let comms =
    Spans.wrap "Padico.circuit" (fun () ->
        Mpi.init (Padico.circuit grid ~name:"san-mpi" [ a; b ]))
  in
  ignore
    (Padico.spawn grid b ~name:"mpi-echo" (fun () ->
         while true do
           let _, _, m = Mpi.recv comms.(1) ~tag:1 () in
           Mpi.send comms.(1) ~dst:0 ~tag:2 m
         done));
  Padico.listen grid b ~port:vio_port (fun vl ->
      ignore
        (Padico.spawn grid b ~name:"vio-echo" (fun () ->
             let buf = Bb.create msg in
             while Vio.read_exact vl buf do
               ignore (Vio.write vl buf)
             done;
             Vio.close vl)));
  let orb_b = Orb.init grid b in
  Orb.activate orb_b ~key:"echo" (fun ~op:_ v -> Ok v);
  Orb.serve orb_b ~port:omni_port;
  let mico_b = Orb.init ~profile:Cdr.mico grid b in
  let bulk_got = ref 0 and bulk_sum = ref 0 and bulk_last = ref 0 in
  Orb.activate mico_b ~key:"sink" (fun ~op:_ v ->
      (match v with
       | Cdr.VOctets d ->
         bulk_got := !bulk_got + Bb.length d;
         bulk_sum := !bulk_sum + Bb.checksum d;
         bulk_last := Padico.now grid
       | _ -> ());
      Ok Cdr.VNull);
  Orb.serve mico_b ~port:mico_port;
  (* Lazy set-up: connect every client and make one warm-up exchange on
     each path, so first-connect and binding costs stay out of the timed
     phase. *)
  let orb_a = Orb.init grid a and mico_a = Orb.init ~profile:Cdr.mico grid a in
  let ior node port key = { Orb.ior_node = node; ior_port = port; ior_key = key } in
  let omni = Orb.resolve orb_a (ior b omni_port "echo") in
  let mico = Orb.resolve mico_a (ior b mico_port "sink") in
  let vl = ref None in
  let setup_ok = ref false in
  let warm = Bb.create msg in
  ignore
    (Padico.spawn grid a ~name:"setup" (fun () ->
         let c = Spans.wrap "Padico.connect" (fun () ->
             Padico.connect grid ~src:a ~dst:b ~port:vio_port) in
         (match Vio.connect_wait c with Ok () -> () | Error e -> failwith e);
         vl := Some c;
         ignore (Vio.write c warm);
         ignore (Vio.read_exact c (Bb.create msg));
         Mpi.send comms.(0) ~dst:1 ~tag:1 warm;
         ignore (Mpi.recv comms.(0) ~tag:2 ());
         ignore (Orb.invoke omni ~op:"echo" (Cdr.VOctets warm));
         Orb.invoke_oneway mico ~op:"push" (Cdr.VOctets warm);
         setup_ok := true));
  h.drive grid;
  if not !setup_ok then failwith "san-mix: set-up did not complete";
  let vl = Option.get !vl in
  let warm_bytes = !bulk_got in
  let setup_s = Meter.secs_since t0 in
  (* Inputs from the seed: distinct patterned payloads per operation,
     client start offsets and think times. *)
  let r = Wl.rng seed 0x5a4 in
  let inputs =
    Array.init 3 (fun k ->
        ( Array.init iters (fun i -> Wl.patterned msg ~seed:((k * 7) + i + seed)),
          Array.init iters (fun _ -> Engine.Rng.int r 4_000) ))
  in
  let starts = Array.init 4 (fun _ -> Engine.Rng.int r 20_000) in
  let apis =
    Array.map
      (fun n -> { aname = n; lat = Samples.create iters; bad = 0 })
      [| "mpi"; "vlink"; "corba" |]
  in
  let chunks = Array.init 4 (fun i -> Wl.patterned bulk_chunk ~seed:(seed + i)) in
  let expect_sum =
    let s = ref 0 in
    for i = 0 to bulk_count - 1 do s := !s + Bb.checksum chunks.(i mod 4) done;
    !s
  in
  let sim = Padico.sim grid in
  let op_id = ref 0 in
  (* One closed-loop client: [exchange] sends one payload and returns the
     echo (or [None] on a failed call). *)
  let client (api : api) k ~start exchange =
    let pl, th = inputs.(k) in
    let op_name = "op." ^ api.aname in
    ignore
      (Padico.spawn grid a ~name:("client-" ^ api.aname) (fun () ->
           Engine.Proc.sleep sim start;
           for i = 0 to iters - 1 do
             let op = !op_id in
             incr op_id;
             let sp = Spans.start ~op_id:op op_name in
             let t = Padico.now grid in
             (match exchange ~parent:sp ~op pl.(i) with
              | Some reply when Bb.equal reply pl.(i) -> ()
              | _ -> api.bad <- api.bad + 1);
             Samples.add api.lat (Wl.us_of_ns (Padico.now grid - t) /. 2.0);
             Spans.stop sp;
             if th.(i) > 0 then Engine.Proc.sleep sim th.(i)
           done))
  in
  h.timed_start grid;
  let t1 = Meter.now_ns () in
  let vt0 = Padico.now grid in
  client apis.(0) 0 ~start:starts.(0) (fun ~parent ~op p ->
      let s = Spans.start ~parent_span:parent ~op_id:op "Mpi.send" in
      Mpi.send comms.(0) ~dst:1 ~tag:1 p;
      Spans.stop s;
      let s = Spans.start ~parent_span:parent ~op_id:op "Mpi.recv" in
      let _, _, m = Mpi.recv comms.(0) ~tag:2 () in
      Spans.stop s;
      Some m);
  let rbuf = Bb.create msg in
  client apis.(1) 1 ~start:starts.(1) (fun ~parent ~op p ->
      let s = Spans.start ~parent_span:parent ~op_id:op "Vio.write" in
      ignore (Vio.write vl p);
      Spans.stop s;
      let s = Spans.start ~parent_span:parent ~op_id:op "Vio.read_exact" in
      let ok = Vio.read_exact vl rbuf in
      Spans.stop s;
      if ok then Some rbuf else None);
  client apis.(2) 2 ~start:starts.(2) (fun ~parent ~op p ->
      let s = Spans.start ~parent_span:parent ~op_id:op "Orb.invoke" in
      let r = Orb.invoke omni ~op:"echo" (Cdr.VOctets p) in
      Spans.stop s;
      match r with Ok (Cdr.VOctets m) -> Some m | _ -> None);
  let bulk_t0 = ref 0 in
  ignore
    (Padico.spawn grid a ~name:"mico-bulk" (fun () ->
         Engine.Proc.sleep sim starts.(3);
         bulk_t0 := Padico.now grid;
         for i = 0 to bulk_count - 1 do
           let s = Spans.start "Orb.invoke_oneway" in
           Orb.invoke_oneway mico ~op:"push" (Cdr.VOctets chunks.(i mod 4));
           Spans.stop s
         done));
  h.drive grid;
  let vt1 = Padico.now grid in
  let wall_s = Meter.secs_since t1 in
  h.timed_end ();
  Vio.close vl;
  let bulk_bytes = !bulk_got - warm_bytes in
  let bulk_ok = bulk_bytes = bulk_chunk * bulk_count && !bulk_sum - Bb.checksum warm = expect_sum in
  let rt_done = Array.fold_left (fun acc a -> acc + Samples.length a.lat) 0 apis in
  let bad = Array.fold_left (fun acc a -> acc + a.bad) 0 apis in
  let ops = (3 * iters) + bulk_count in
  let failed = bad + ((3 * iters) - rt_done) + if bulk_ok then 0 else bulk_count in
  let goodput = Wl.mb_s bulk_bytes (!bulk_last - !bulk_t0) in
  let p50 a =
    match Meter.percentile (Samples.sorted [ a.lat ]) 50.0 with Some v -> v | None -> 0.0
  in
  let p99 =
    match Meter.percentile (Samples.sorted (Array.to_list (Array.map (fun a -> a.lat) apis))) 99.0
    with Some v -> v | None -> 0.0
  in
  let digest =
    Printf.sprintf "%d %d %d %d %.17g %.17g %s" vt0 vt1 bulk_bytes !bulk_last goodput p99
      (String.concat " "
         (Array.to_list
            (Array.map (fun a -> Printf.sprintf "%s=%.17g" a.aname (p50 a)) apis)))
  in
  { Wl.setup_s; wall_s; ops; failed;
    lat = Array.to_list (Array.map (fun a -> a.lat) apis); pct = None;
    clock = `Virtual;
    extra = [ ("vgoodput_mb_s", "MB/s", goodput) ];
    layer =
      Array.to_list (Array.map (fun a -> ("api." ^ a.aname ^ ".vlat_p50_us", p50 a)) apis);
    digest }
