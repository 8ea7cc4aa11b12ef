(** Operation timestamps (paper §5.1): the pair (local invocation clock
    time, invoking process id), ordered lexicographically.  Process ids
    break ties, so timestamps of distinct operations are distinct, and
    timestamps assigned at one process strictly increase (operations at
    a process are sequential and take positive time). *)

type t = { time : Rat.t; proc : int }

let make ~time ~proc = { time; proc }

let compare a b =
  let c = Rat.compare a.time b.time in
  if c <> 0 then c else Stdlib.compare a.proc b.proc

let equal a b = compare a b = 0
let le a b = compare a b <= 0
let lt a b = compare a b < 0
let pp ppf t = Format.fprintf ppf "(%a, p%d)" Rat.pp t.time t.proc

(* The simulator's flat event heap orders entries by (time, priority,
   insertion seq); with the process id as the priority that is the
   timestamp order, ties broken by add order.  Entries sharing a
   timestamp therefore pop consecutively, oldest first, so [pop]
   drains them all and returns the newest: map semantics, which a
   duplicated message relies on when it re-adds its timestamp. *)
module Heap = struct
  module Q = Sim.Event_queue

  type 'a t = 'a Q.t

  let create = Q.create
  let add h ts v = Q.push_class h ~priority:ts.proc ~time:ts.time v

  let[@inline] min_at h ~time ~proc =
    (not (Q.is_empty h))
    && Rat.equal (Q.min_time h) time
    && Q.min_priority h = proc

  let min_is h ts = min_at h ~time:ts.time ~proc:ts.proc

  let min_le h ts =
    (not (Q.is_empty h))
    &&
    let c = Rat.compare (Q.min_time h) ts.time in
    c < 0 || (c = 0 && Q.min_priority h <= ts.proc)

  let pop h =
    let time = Q.min_time h and proc = Q.min_priority h in
    let v = ref (Q.pop_min h) in
    while min_at h ~time ~proc do
      v := Q.pop_min h
    done;
    !v
end
