(* Golden outputs: byte-for-byte guards against lowering drift.

   Each file under golden/ holds the deterministic rendering of one run
   family as produced before the sweep cells and robustness legs were
   lowered through [Scenario.Exec]: the sweep fingerprint of the
   reference grid (at two workload sizes), the robustness matrix JSON
   at the CLI's default model point, X and seed, the fingerprint of a
   small skewed sharded load, and the ablation harness's outcome lines
   for the queue and the register at the CLI's default model point, X
   and seeds.  Any change to how a run is described, seeded or lowered
   shows up here as a diff. *)

let packed key =
  match Sweep.Packed_type.find key with
  | Some pt -> pt
  | None -> Alcotest.failf "unknown packed type %s" key

let read path =
  let ic = open_in_bin (Filename.concat "golden" path) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_golden path actual =
  Alcotest.(check string) path (read path) actual

(* The CLI's default model point, X and seed. *)
let model =
  Sim.Model.make_optimal_eps ~n:4 ~d:(Rat.of_int 12) ~u:(Rat.of_int 4)

let x = Rat.div_int (Rat.sub model.d model.eps) 2

let test_sweep_default_grid () =
  check_golden "sweep_default_grid.txt"
    (Sweep.fingerprint (Sweep.run ~jobs:2 Sweep.default_grid))

let test_sweep_per_proc_4 () =
  check_golden "sweep_per_proc_4.txt"
    (Sweep.fingerprint
       (Sweep.run ~jobs:2 { Sweep.default_grid with per_proc = 4 }))

let test_robustness_matrix () =
  let cells =
    Sweep.robustness ~jobs:2 ~model ~x ~seed:1
      [ packed "queue"; packed "register" ]
  in
  check_golden "robustness_queue_register.json"
    (Format.asprintf "%a@." Core.Robustness.pp_json cells)

let test_shard_load () =
  let cfg =
    Shard.Config.make ~zipf:0.9 ~seed:1 ~shards:3 ~ops:3000
      ~arrival:(Core.Workload.Poisson { rate = Rat.one })
      ~model ~algorithm:(Core.Runtime.Wtlw { x }) ()
  in
  check_golden "shard_queue_3x3000_zipf09.txt"
    (Shard.fingerprint (Shard.run ~jobs:2 cfg (packed "queue")))

let ablation_lines (module T : Spec.Data_type.S) =
  let module A = Core.Ablation.Make (T) in
  String.concat ""
    (List.map
       (fun o -> Format.asprintf "%a@." Core.Ablation.pp_outcome o)
       (A.report ~model ~x ~seeds:(List.init 8 (fun i -> i + 1))))

let test_ablation_queue () =
  check_golden "ablation_queue.txt" (ablation_lines (module Spec.Fifo_queue))

let test_ablation_register () =
  check_golden "ablation_register.txt" (ablation_lines (module Spec.Register))

let () =
  Alcotest.run "golden"
    [
      ( "sweep",
        [
          Alcotest.test_case "default grid fingerprint" `Quick
            test_sweep_default_grid;
          Alcotest.test_case "per_proc 4 fingerprint" `Quick
            test_sweep_per_proc_4;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "queue and register matrix JSON" `Quick
            test_robustness_matrix;
        ] );
      ( "shard",
        [ Alcotest.test_case "3-shard zipf 0.9 queue load" `Quick test_shard_load ]
      );
      ( "ablation",
        [
          Alcotest.test_case "queue outcomes, seeds 1-8" `Quick
            test_ablation_queue;
          Alcotest.test_case "register outcomes, seeds 1-8" `Quick
            test_ablation_register;
        ] );
    ]
