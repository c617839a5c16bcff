(* Reusable measurement scenarios over the Padico runtime: grids, latency
   ping-pongs and bandwidth streams for each middleware, plus one module
   per grid experiment (E10 Failover, E11 Flow, E12 Sched, E13 Coll, E14
   Heal). The benchmark harness (bench/) and the CLI (bin/padico_cli) both
   run these, so an experiment has exactly one implementation. Numbers are
   virtual-time measurements unless a scenario runs on the host backend. *)

module Gridgen = Gridgen
module Failover = Failover
module Flow = Flow
module Sched = Sched
module Coll = Coll
module Heal = Heal
include Harness

module Bb = Engine.Bytebuf
module Vio = Personalities.Vio
module Mpi = Mw_mpi.Mpi
module Orb = Mw_corba.Orb
module Cdr = Mw_corba.Cdr
module Jsock = Mw_java.Jsock

(* Number of messages for a bandwidth point: enough traffic to reach steady
   state at every size. *)
let count_for size = max 32 (min 2048 (8_000_000 / size))

(* A Myrinet pair grid (the paper's testbed). *)
let myrinet_pair () =
  let grid = Padico.create () in
  let a = Padico.add_node grid "a" in
  let b = Padico.add_node grid "b" in
  ignore (Padico.add_segment grid Simnet.Presets.myrinet2000 [ a; b ]);
  (grid, a, b)

let pair model ?prefs ?backend () =
  let grid = Padico.create ?prefs ?backend () in
  let a = Padico.add_node grid "a" in
  let b = Padico.add_node grid "b" in
  ignore (Padico.add_segment grid model [ a; b ]);
  (grid, a, b)

(* ---------- generic VLink (Vio) streams ---------- *)

(* One-way bulk: client streams [total] bytes in [chunk]-sized writes;
   returns receiver-side MB/s. *)
let vio_stream_bw grid ~src ~dst ~port ~total ~chunk =
  let t0 = ref 0 and t1 = ref 0 in
  let received = ref 0 in
  let skipped = ref 0 in
  Padico.listen grid dst ~port (fun vl ->
      ignore
        (Padico.spawn grid dst ~name:"sink" (fun () ->
             let buf = Bb.create 65_536 in
             let rec loop () =
               let n = Vio.read vl buf in
               if n > 0 then begin
                 (* Start the clock at the first read; its bytes are not
                    counted in the timed window. *)
                 if !received = 0 then begin
                   t0 := Padico.now grid;
                   skipped := n
                 end;
                 received := !received + n;
                 if !received >= total then t1 := Padico.now grid else loop ()
               end
             in
             loop ();
             (* Release the descriptor: the host reactor only quiesces
                once no active sockets remain. *)
             Vio.close vl)));
  let h =
    Padico.spawn grid src ~name:"source" (fun () ->
        let vl = Padico.connect grid ~src ~dst ~port in
        (match Vio.connect_wait vl with
         | Ok () -> ()
         | Error e -> failwith e);
        let payload = Bb.create chunk in
        let sent = ref 0 in
        while !sent < total do
          let n = min chunk (total - !sent) in
          ignore (Vio.write vl (Bb.sub payload 0 n));
          sent := !sent + n
        done;
        Vio.close vl)
  in
  run grid;
  fail_on_error h;
  if !received < total then nan else mb_s (total - !skipped) (!t1 - !t0)

(* Ping-pong one-way latency in microseconds over Vio. *)
let vio_latency grid ~src ~dst ~port ~size ~iters =
  Padico.listen grid dst ~port (fun vl ->
      ignore
        (Padico.spawn grid dst ~name:"echo" (fun () ->
             let buf = Bb.create size in
             let rec loop () =
               if Vio.read_exact vl buf then begin
                 ignore (Vio.write vl buf);
                 loop ()
               end
             in
             loop ();
             Vio.close vl)));
  let result = ref nan in
  let h =
    Padico.spawn grid src ~name:"pinger" (fun () ->
        let vl = Padico.connect grid ~src ~dst ~port in
        (match Vio.connect_wait vl with
         | Ok () -> ()
         | Error e -> failwith e);
        let buf = Bb.create size in
        (* Warmup. *)
        for _ = 1 to 10 do
          ignore (Vio.write vl buf);
          ignore (Vio.read_exact vl buf)
        done;
        let t0 = Padico.now grid in
        for _ = 1 to iters do
          ignore (Vio.write vl buf);
          ignore (Vio.read_exact vl buf)
        done;
        let t1 = Padico.now grid in
        result := float_of_int (t1 - t0) /. float_of_int iters /. 2.0 /. 1e3;
        Vio.close vl)
  in
  run grid;
  fail_on_error h;
  !result

(* ---------- MPI ---------- *)

let mpi_pair grid a b =
  let cts = Padico.circuit grid ~name:"bench-mpi" [ a; b ] in
  Mpi.init cts

let mpi_stream_bw grid comms ~a ~b ~size ~count =
  let t0 = ref 0 and t1 = ref 0 in
  let h =
    Padico.spawn grid b ~name:"mpi-sink" (fun () ->
        for i = 0 to count - 1 do
          let _ = Mpi.recv comms.(1) ~tag:1 () in
          if i = 0 then t0 := Padico.now grid
        done;
        t1 := Padico.now grid)
  in
  ignore
    (Padico.spawn grid a ~name:"mpi-source" (fun () ->
         let payload = Bb.create size in
         for _ = 1 to count do
           Mpi.send comms.(0) ~dst:1 ~tag:1 payload
         done));
  run grid;
  fail_on_error h;
  mb_s (size * (count - 1)) (!t1 - !t0)

let mpi_latency grid comms ~a ~b ~iters =
  let result = ref nan in
  ignore
    (Padico.spawn grid b ~name:"mpi-echo" (fun () ->
         for _ = 1 to iters + 10 do
           let _, _, m = Mpi.recv comms.(1) ~tag:1 () in
           Mpi.send comms.(1) ~dst:0 ~tag:2 m
         done));
  let h =
    Padico.spawn grid a ~name:"mpi-ping" (fun () ->
        let payload = Bb.create 4 in
        for _ = 1 to 10 do
          Mpi.send comms.(0) ~dst:1 ~tag:1 payload;
          ignore (Mpi.recv comms.(0) ~tag:2 ())
        done;
        let t0 = Padico.now grid in
        for _ = 1 to iters do
          Mpi.send comms.(0) ~dst:1 ~tag:1 payload;
          ignore (Mpi.recv comms.(0) ~tag:2 ())
        done;
        let t1 = Padico.now grid in
        result := float_of_int (t1 - t0) /. float_of_int iters /. 2.0 /. 1e3)
  in
  run grid;
  fail_on_error h;
  !result

(* ---------- CORBA ---------- *)

(* Oneway invocation stream carrying [size] octets, server-side goodput. *)
let corba_stream_bw ~profile grid ~a ~b ~port ~size ~count =
  let orb_a = Orb.init ~profile grid a in
  let orb_b = Orb.init ~profile grid b in
  let t0 = ref 0 and t1 = ref 0 in
  let got = ref 0 in
  Orb.activate orb_b ~key:"sink" (fun ~op:_ v ->
      (match v with
       | Cdr.VOctets data ->
         if !got = 0 then t0 := Padico.now grid;
         got := !got + Bb.length data;
         if !got >= size * count then t1 := Padico.now grid
       | _ -> ());
      Ok Cdr.VNull);
  Orb.serve orb_b ~port;
  let h =
    Padico.spawn grid a ~name:"corba-source" (fun () ->
        let p = Orb.resolve orb_a { Orb.ior_node = b; ior_port = port; ior_key = "sink" } in
        let payload = Cdr.VOctets (Bb.create size) in
        for _ = 1 to count do
          Orb.invoke_oneway p ~op:"push" payload
        done)
  in
  run grid;
  fail_on_error h;
  if !got < size * count then nan
  else mb_s (size * count - size) (!t1 - !t0)

let corba_latency ~profile grid ~a ~b ~port ~iters =
  let orb_a = Orb.init ~profile grid a in
  let orb_b = Orb.init ~profile grid b in
  Orb.activate orb_b ~key:"echo" (fun ~op:_ v -> Ok v);
  Orb.serve orb_b ~port;
  let result = ref nan in
  let h =
    Padico.spawn grid a ~name:"corba-ping" (fun () ->
        let p = Orb.resolve orb_a { Orb.ior_node = b; ior_port = port; ior_key = "echo" } in
        for _ = 1 to 10 do
          ignore (Orb.invoke p ~op:"e" Cdr.VNull)
        done;
        let t0 = Padico.now grid in
        for _ = 1 to iters do
          ignore (Orb.invoke p ~op:"e" Cdr.VNull)
        done;
        let t1 = Padico.now grid in
        result := float_of_int (t1 - t0) /. float_of_int iters /. 2.0 /. 1e3)
  in
  run grid;
  fail_on_error h;
  !result

(* ---------- Java sockets ---------- *)

let java_stream_bw grid ~a ~b ~port ~size ~count =
  let total = size * count in
  let t0 = ref 0 and t1 = ref 0 in
  let timed_bytes = ref total in
  let server = Jsock.server_socket grid b ~port in
  ignore
    (Padico.spawn grid b ~name:"java-sink" (fun () ->
         let s = Jsock.accept server in
         let buf = Bb.create 65_536 in
         let received = ref 0 in
         let skipped = ref 0 in
         let rec loop () =
           let n = Jsock.input_read s buf in
           if n > 0 then begin
             if !received = 0 then begin
               t0 := Padico.now grid;
               skipped := n
             end;
             received := !received + n;
             if !received >= total then begin
               t1 := Padico.now grid;
               timed_bytes := total - !skipped
             end
             else loop ()
           end
         in
         loop ()));
  let h =
    Padico.spawn grid a ~name:"java-source" (fun () ->
        let s = Jsock.connect grid ~src:a ~dst:b ~port in
        let payload = Bb.create size in
        for _ = 1 to count do
          Jsock.output_write s payload
        done)
  in
  run grid;
  fail_on_error h;
  if !t1 = 0 then nan else mb_s !timed_bytes (!t1 - !t0)

let java_latency grid ~a ~b ~port ~iters =
  let server = Jsock.server_socket grid b ~port in
  ignore
    (Padico.spawn grid b ~name:"java-echo" (fun () ->
         let s = Jsock.accept server in
         let buf = Bb.create 4 in
         while Jsock.input_read_fully s buf do
           Jsock.output_write s buf
         done));
  let result = ref nan in
  let h =
    Padico.spawn grid a ~name:"java-ping" (fun () ->
        let s = Jsock.connect grid ~src:a ~dst:b ~port in
        let buf = Bb.create 4 in
        for _ = 1 to 10 do
          Jsock.output_write s buf;
          ignore (Jsock.input_read_fully s buf)
        done;
        let t0 = Padico.now grid in
        for _ = 1 to iters do
          Jsock.output_write s buf;
          ignore (Jsock.input_read_fully s buf)
        done;
        let t1 = Padico.now grid in
        result := float_of_int (t1 - t0) /. float_of_int iters /. 2.0 /. 1e3)
  in
  run grid;
  fail_on_error h;
  !result

(* ---------- table printing ---------- *)

let print_header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let print_row fmt = Printf.printf fmt

let pp_mb v = if Float.is_nan v then "   n/a " else Printf.sprintf "%7.1f" v

let pp_us v = if Float.is_nan v then "   n/a " else Printf.sprintf "%7.2f" v
