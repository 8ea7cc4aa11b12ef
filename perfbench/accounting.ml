(* Operation accounting shared by the benchmark and its test.

   An operation counts as done only when it completed and every check
   covering it passed: its shard certified, or its sweep cell completed
   with [verdict.certified].  Everything else attempted is failed: it
   ended pending, its run was truncated, its key or shard was not
   certified, or its cell failed. *)

type t = { attempted : int; certified : int }

let failed t = t.attempted - t.certified

let failed_frac t =
  if t.attempted = 0 then 0.0
  else float_of_int (failed t) /. float_of_int t.attempted

let add a b =
  { attempted = a.attempted + b.attempted; certified = a.certified + b.certified }

let zero = { attempted = 0; certified = 0 }

(* A sharded load attempts [ops] generated operations in total. *)
let of_load (t : Shard.t) =
  let certified =
    Array.fold_left
      (fun acc -> function
        | Sweep.Pool.Done (r : Shard.shard_report) when r.certified ->
            acc + r.operations
        | _ -> acc)
      0 t.reports
  in
  { attempted = t.ops; certified }

(* A sweep cell is a closed loop of [per_proc] operations on each of
   the point's [n] processes. *)
let of_sweep (t : Sweep.t) =
  let acc = ref zero in
  Array.iteri
    (fun i (cell : Sweep.cell) ->
      let certified =
        match t.results.(i) with
        | Sweep.Pool.Done (v : Sweep.verdict) when v.certified -> v.operations
        | _ -> 0
      in
      acc :=
        add !acc
          { attempted = t.grid.per_proc * cell.point.n; certified })
    t.cells;
  !acc
