(* The scenario DSL: one first-class value describing a whole run —
   workload, model point, delay schedule, fault plan, checker,
   algorithm (including ablation knobs) and an expected outcome with a
   temporal predicate — plus the machinery around it: a stable textual
   encoding, a seed-deterministic generator, the executor whose
   lowering onto [Runtime.Config] every closed-loop run shares, and a
   counterexample shrinker.

   This is the library's public face; the submodules stay accessible
   ([Scenario.Exec], [Scenario.Shrink], ...) for code that wants the
   detailed result records. *)

include Types

module Sexp = Sexp
module Exec = Exec
module Shrink = Shrink
module Generate = Generate
module Probe = Probe
module Builtin = Builtin

(* Codec, re-exported flat: [Scenario.to_sexp] etc. *)
let to_sexp = Codec.to_sexp
let of_sexp = Codec.of_sexp
let to_string = Codec.to_string
let of_string = Codec.of_string
let save = Codec.save
let load = Codec.load

let run = Exec.run
let shrink = Shrink.shrink
let gen = Generate.gen
