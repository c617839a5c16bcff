(* E14 self-healing: a multilevel healing group runs allreduces while
   rank [victim]'s node crashes with an operation in flight. Timeline
   (sim ns, or host wall ns after start):
     0        all ranks join a warm-up allreduce (full group, measured
              as the pre-crash WAN cost)
     crash_at victim node dies (host: its sockets RST)
     ops_at   survivors post the measured allreduce — the detector has
              not confirmed yet, so the operation genuinely stalls on
              the dead member, then eviction rewinds and completes it
     ...      one more allreduce in the epoch-1 steady state (the
              post-eviction WAN cost), then retire *)

module Bb = Engine.Bytebuf
module Time = Engine.Time
module Proc = Engine.Proc
module Node = Simnet.Node
module Group = Collectives.Group
module Plan = Padico_fault.Plan

let payload = 4096

(* Reference result: xor-fold of the surviving ranks' contributions —
   what the healing retry must recompute once the victim is evicted. *)
let expected_xor ~n ~victim =
  let acc = Bb.create payload in
  for r = 0 to n - 1 do
    if r <> victim then begin
      let c = Harness.pattern payload (r + 1) in
      for i = 0 to payload - 1 do
        Bb.set_u8 acc i (Bb.get_u8 acc i lxor Bb.get_u8 c i)
      done
    end
  done;
  Bb.to_string acc

type result = {
  groups : Group.t array;  (* retired *)
  recovery_ns : int;  (* crash -> rank 0's healed allreduce returns *)
  wan_msgs_before : int;
  wan_bytes_before : int;
  wan_msgs_after : int;
  wan_bytes_after : int;
  diverged : int list;
      (* survivors whose healed allreduce differs from [expected_xor] *)
  unfinished : (int * string) list;
      (* survivors that raised or never finished, and how *)
}

let crash (g : Gridgen.t) ~label ~victim ~interval_ns ~crash_at ~deadline_ns
    ~until =
  let grid = g.grid in
  let nodes = Array.of_list g.nodes in
  let n = Array.length nodes in
  let heal = { Detect.default_config with Detect.interval_ns } in
  let groups =
    Group.create ~strategy:Group.Multilevel ~deadline_ns ~heal grid
      ~name:("e14-" ^ label) g.nodes
  in
  let ops_at = crash_at + Time.ms 1 in
  let want = expected_xor ~n ~victim in
  let gm0 = groups.(0) in
  let recovery_ns = ref 0 in
  let wan_before = ref (0, 0) in
  let wan_after = ref (0, 0) in
  let diverged = ref [] in
  ignore
    (Padico_fault.Inject.apply (Padico.net grid)
       [ { Plan.at_ns = crash_at;
           action = Plan.Node_crash (Node.name nodes.(victim)) } ]);
  let hs =
    Array.mapi
      (fun r node ->
         Padico.spawn grid node ~name:(Printf.sprintf "e14-%s-%d" label r)
           (fun () ->
              let gm = groups.(r) in
              let contrib () = Harness.pattern payload (r + 1) in
              let m0 = Group.wan_messages gm0 and b0 = Group.wan_bytes gm0 in
              (try ignore (Group.allreduce gm ~op:Group.Bxor (contrib ()))
               with Group.Failed _ when r = victim -> ());
              if r = 0 && Padico.now grid >= crash_at then
                failwith
                  (Printf.sprintf
                     "e14-%s: warm-up ran past the crash time (%d ns) — \
                      raise crash_at"
                     label (Padico.now grid));
              if r <> victim then begin
                let now = Padico.now grid in
                if now < ops_at then
                  Proc.sleep_on (Node.clock node) (ops_at - now);
                (* By now the warm-up's cross-cluster tail has drained and
                   no eviction traffic exists yet (detection needs several
                   intervals of silence), so the delta is exactly one
                   full-group allreduce. *)
                if r = 0 then
                  wan_before :=
                    (Group.wan_messages gm0 - m0, Group.wan_bytes gm0 - b0);
                let res = Group.allreduce gm ~op:Group.Bxor (contrib ()) in
                if Bb.to_string res <> want then diverged := r :: !diverged;
                if r = 0 then recovery_ns := Padico.now grid - crash_at;
                (* One settling round first: the healed operation's retry
                   tail (late acks, re-serves) must drain before the
                   steady-state WAN cost is snapshotted, or it pollutes
                   the "after" window. *)
                ignore (Group.allreduce gm ~op:Group.Bxor (contrib ()));
                let m1 = Group.wan_messages gm0
                and b1 = Group.wan_bytes gm0 in
                ignore (Group.allreduce gm ~op:Group.Bxor (contrib ()));
                if r = 0 then
                  wan_after :=
                    (Group.wan_messages gm0 - m1, Group.wan_bytes gm0 - b1)
              end))
      nodes
  in
  Padico.run grid ~until;
  Array.iter Group.retire groups;
  let unfinished =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun r h ->
               if r = victim then []
               else
                 match Proc.result h with
                 | Some (Ok ()) -> []
                 | Some (Error e) -> [ (r, "raised " ^ Printexc.to_string e) ]
                 | None -> [ (r, "never finished (hang)") ])
            hs))
  in
  let mb, bb = !wan_before and ma, ba = !wan_after in
  { groups; recovery_ns = !recovery_ns; wan_msgs_before = mb;
    wan_bytes_before = bb; wan_msgs_after = ma; wan_bytes_after = ba;
    diverged = List.sort compare !diverged; unfinished }
