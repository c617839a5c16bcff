(* Experiment E2 — Table 1: one-way latency and maximum bandwidth of the
   abstract interfaces and middleware over Myrinet-2000. *)

module Bb = Engine.Bytebuf
module Cdr = Mw_corba.Cdr
module Ct = Circuit.Ct
module Madpers = Personalities.Madpers

let iters = 2000

(* Circuit: raw abstract-interface ping-pong. *)
let circuit_latency () =
  let grid, a, b = Bhelp.myrinet_pair () in
  let cts = Padico.circuit grid ~name:"t1" [ a; b ] in
  let mp0 = Madpers.attach cts.(0) in
  let mp1 = Madpers.attach cts.(1) in
  let result = ref nan in
  ignore
    (Padico.spawn grid b ~name:"echo" (fun () ->
         let rec loop () =
           let src, inc = Madpers.recv_blocking mp1 in
           let data = Ct.unpack inc (Ct.remaining inc) in
           let out = Madpers.begin_packing mp1 ~dst:src in
           Madpers.pack out data;
           Madpers.end_packing out;
           loop ()
         in
         loop ()));
  let h =
    Padico.spawn grid a ~name:"ping" (fun () ->
        let small = Bb.create 4 in
        let round () =
          let out = Madpers.begin_packing mp0 ~dst:1 in
          Madpers.pack out small;
          Madpers.end_packing out;
          ignore (Madpers.recv_blocking mp0)
        in
        for _ = 1 to 10 do round () done;
        let t0 = Padico.now grid in
        for _ = 1 to iters do round () done;
        let t1 = Padico.now grid in
        result := float_of_int (t1 - t0) /. float_of_int iters /. 2.0 /. 1e3)
  in
  Bhelp.run grid;
  Bhelp.fail_on_error h;
  !result

let circuit_bandwidth () =
  let grid, a, b = Bhelp.myrinet_pair () in
  let cts = Padico.circuit grid ~name:"t1bw" [ a; b ] in
  let count = 64 in
  let size = 1_000_000 in
  let t0 = ref 0 and t1 = ref 0 in
  let seen = ref 0 in
  Ct.set_recv cts.(1) (fun inc ->
      ignore (Ct.unpack inc (Ct.remaining inc));
      if !seen = 0 then t0 := Padico.now grid;
      incr seen;
      if !seen = count then t1 := Padico.now grid);
  let payload = Bb.create size in
  for _ = 1 to count do
    let out = Ct.begin_packing cts.(0) ~dst:1 in
    Ct.pack out payload;
    Ct.end_packing out
  done;
  Bhelp.run grid;
  Bhelp.mb_s (size * (count - 1)) (!t1 - !t0)

let vlink_latency () =
  let grid, a, b = Bhelp.myrinet_pair () in
  Bhelp.vio_latency grid ~src:a ~dst:b ~port:4000 ~size:4 ~iters

let vlink_bandwidth () =
  let grid, a, b = Bhelp.myrinet_pair () in
  Bhelp.vio_stream_bw grid ~src:a ~dst:b ~port:4000 ~total:64_000_000
    ~chunk:1_000_000

let mpi_latency () =
  let grid, a, b = Bhelp.myrinet_pair () in
  let comms = Bhelp.mpi_pair grid a b in
  Bhelp.mpi_latency grid comms ~a ~b ~iters

let mpi_bandwidth () =
  let grid, a, b = Bhelp.myrinet_pair () in
  let comms = Bhelp.mpi_pair grid a b in
  Bhelp.mpi_stream_bw grid comms ~a ~b ~size:1_000_000 ~count:64

let corba_latency profile () =
  let grid, a, b = Bhelp.myrinet_pair () in
  Bhelp.corba_latency ~profile grid ~a ~b ~port:3000 ~iters:1000

let corba_bandwidth profile () =
  let grid, a, b = Bhelp.myrinet_pair () in
  Bhelp.corba_stream_bw ~profile grid ~a ~b ~port:3000 ~size:1_000_000
    ~count:64

let java_latency () =
  let grid, a, b = Bhelp.myrinet_pair () in
  Bhelp.java_latency grid ~a ~b ~port:7000 ~iters:1000

let java_bandwidth () =
  let grid, a, b = Bhelp.myrinet_pair () in
  Bhelp.java_stream_bw grid ~a ~b ~port:7000 ~size:1_000_000 ~count:64

(* (row, key slug for BENCH_results.json, latency, bandwidth, paper
   latency, paper bandwidth) *)
let rows =
  [ ("Circuit", "circuit", circuit_latency, circuit_bandwidth, 8.4, 240.0);
    ("VLink", "vlink", vlink_latency, vlink_bandwidth, 10.2, 239.0);
    ("MPICH-1.2.5", "mpich", mpi_latency, mpi_bandwidth, 12.06, 238.7);
    ("omniORB 3", "omniorb3", corba_latency Cdr.omniorb3,
     corba_bandwidth Cdr.omniorb3, 20.3, 238.4);
    ("omniORB 4", "omniorb4", corba_latency Cdr.omniorb4,
     corba_bandwidth Cdr.omniorb4, 18.4, 235.8);
    ("Java sockets", "java", java_latency, java_bandwidth, 40.0, 237.9) ]

let run () =
  Bhelp.print_header
    "E2 / Table 1 — one-way latency (us) and max bandwidth (MB/s) over Myrinet-2000";
  Printf.printf "%-14s %10s %10s %12s %12s\n" "API/middleware" "lat (us)"
    "paper" "bw (MB/s)" "paper";
  List.iter
    (fun (name, slug, lat, bw, plat, pbw) ->
       let l = lat () in
       let b = bw () in
       Printf.printf "%-14s %s %10.2f %s %12.1f\n" name (Bhelp.pp_us l) plat
         (Bhelp.pp_mb b) pbw;
       Bhelp.record ~experiment:"table1" (slug ^ ".lat_us") l;
       Bhelp.record ~experiment:"table1" (slug ^ ".bw_mb_s") b;
       flush stdout)
    rows
