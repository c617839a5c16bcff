(* Process-lifecycle hooks for module-level registries.

   Most layers keep a module-level table mapping node/clock uids to
   per-grid state (TCP stacks, NetAccess dispatchers, VLink adapter
   instances, ...). Grids are never reused across scenarios, but those
   tables keep every grid ever built reachable, so a process that runs
   many scenarios back to back (the bench runner, the conformance kit,
   a 100k-connection capacity sweep) drags the full history of dead
   grids through every GC cycle. Each registry-owning module installs
   an [on_reset] hook at init; [reset_registries] drops them all at
   once between scenarios. *)

let resets : (unit -> unit) list ref = ref []

let on_reset f = resets := f :: !resets

let reset_registries () = List.iter (fun f -> f ()) !resets
