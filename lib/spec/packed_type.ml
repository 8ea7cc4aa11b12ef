(* First-class packing of the bundled data types.

   [Data_type.S] bundles the sequential specification with its
   generators ([gen_invocation], [sample_invocations]), so a packed
   module is everything the scenario executor, the sweep engine, the
   CLI and the bench need to run a workload — dispatch is a list lookup
   plus one functor application, with no per-type match arms at every
   call site. *)

type t = { key : string; modl : (module Data_type.S) }

let pack key modl = { key; modl }
let key t = t.key
let modl t = t.modl

let spec_name t =
  let (module T : Data_type.S) = t.modl in
  T.name

(* The product type exercises multi-object locality (paper §2.3)
   through the single-object machinery. *)
module Product_queue_register = Product.Make (Fifo_queue) (Register)

let all =
  [
    pack "register" (module Register);
    pack "rmw-register" (module Rmw_register);
    pack "queue" (module Fifo_queue);
    pack "stack" (module Stack_type);
    pack "tree" (module Tree_type);
    pack "set" (module Set_type);
    pack "counter" (module Counter_type);
    pack "priority-queue" (module Priority_queue);
    pack "log" (module Log_type);
    pack "product" (module Product_queue_register);
  ]

let keys = List.map key all
let find k = List.find_opt (fun t -> t.key = k) all
