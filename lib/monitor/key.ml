(* Dense time keys and their sorted orders.

   The container kernels order the same values by the same interval
   endpoints several times over: the FIFO sweep, the empty-coverage
   scan and every forced-precedence relation of the insertion order
   all walk values by put start or put finish.  A [Key.t] holds one
   such endpoint as a dense array together with its sorted index
   order, built once per check and shared by every sweep and relation
   that needs it. *)

type t = {
  at : Rat.t array;  (** the key of each index; read only where [defined] *)
  defined : bool array;
  sorted : int array;  (** the defined indices by ascending (key, index) *)
}

(* [sort keys idx] sorts the positions [idx] of [keys] in place by the
   total order (key, position), so equal keys keep ascending positions
   and every order is deterministic.  The one sort the kernels use. *)
let sort (keys : Rat.t array) (idx : int array) =
  Array.stable_sort
    (fun i j ->
      let c = Rat.compare keys.(i) keys.(j) in
      if c <> 0 then c else Int.compare i j)
    idx

(* [make ?defined at]: the key [at], restricted to the indices where
   [defined] holds (everywhere by default). *)
let make ?defined at =
  let m = Array.length at in
  let defined =
    match defined with Some d -> d | None -> Array.make m true
  in
  let count = Array.fold_left (fun n d -> if d then n + 1 else n) 0 defined in
  let sorted = Array.make count 0 in
  let j = ref 0 in
  Array.iteri
    (fun i d ->
      if d then begin
        sorted.(!j) <- i;
        incr j
      end)
    defined;
  sort at sorted;
  { at; defined; sorted }
