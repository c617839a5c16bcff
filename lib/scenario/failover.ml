(* E10 failover: a resilient round-trip echo on the SAN+LAN pair while a
   fault plan runs. The client writes [total] bytes in [chunk]-sized
   writes and reads the echo back; killing the SAN mid-transfer forces
   the session over to the LAN. *)

module Bb = Engine.Bytebuf
module Vl = Vlink.Vl
module Inject = Padico_fault.Inject

type result = {
  received : int;  (* echoed bytes back at the client *)
  elapsed_ns : int;  (* connected -> last echoed byte *)
  goodput_mb_s : float;  (* both directions *)
  stats : Resilient.stats;
  faults_fired : int;
  faults_pending : int;
}

let echo ~seed ~plan ~total ~chunk =
  let grid, a, b, _, _ = Harness.san_lan_pair ~seed ~backend:Padico.Sim in
  let inj = Inject.apply (Padico.net grid) plan in
  Resilient.listen grid b ~port:9000 (fun vl ->
      ignore
        (Padico.spawn grid b ~name:"echo" (fun () ->
             let buf = Bb.create chunk in
             let rec loop () =
               match Vl.await (Vl.post_read vl buf) with
               | Vl.Done n ->
                 (match Vl.await (Vl.post_write vl (Bb.sub buf 0 n)) with
                  | Vl.Done _ -> loop ()
                  | _ -> ())
               | _ -> ()
             in
             loop ())));
  let conn = Resilient.connect grid ~src:a ~dst:b ~port:9000 in
  let cvl = Resilient.vl conn in
  let t0 = ref 0 and t1 = ref 0 in
  let received = ref 0 in
  let h =
    Padico.spawn grid a ~name:"client" (fun () ->
        (match Vl.await_connected cvl with
         | Ok () -> ()
         | Error m -> failwith ("connect: " ^ m));
        t0 := Padico.now grid;
        let sent = ref 0 in
        while !sent < total do
          let n = min chunk (total - !sent) in
          ignore (Vl.post_write cvl (Bb.create n));
          sent := !sent + n
        done;
        let buf = Bb.create chunk in
        let rec rd () =
          if !received < total then
            match Vl.await (Vl.post_read cvl buf) with
            | Vl.Done n ->
              received := !received + n;
              rd ()
            | Vl.Eof | Vl.Again -> ()
            | Vl.Error m -> failwith ("read: " ^ m)
        in
        rd ();
        t1 := Padico.now grid)
  in
  Harness.run grid;
  Harness.fail_on_error h;
  { received = !received; elapsed_ns = !t1 - !t0;
    goodput_mb_s = Harness.mb_s (2 * total) (!t1 - !t0);
    stats = Resilient.stats conn; faults_fired = Inject.fired inj;
    faults_pending = Inject.pending inj }
