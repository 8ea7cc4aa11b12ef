(* The benchmark's failure accounting must see failures: a load whose
   messages are dropped with no reliable channel, and a sweep whose
   checker budget is too small to certify, each report a nonzero share
   of failed operations; a healthy load reports none. *)

open Ledger

let model = Sim.Model.make_optimal_eps ~n:4 ~d:(Rat.of_int 12) ~u:(Rat.of_int 4)

let load ?faults () =
  let cfg =
    Shard.Config.make ?faults ~seed:1 ~shards:2 ~ops:2_000
      ~arrival:(Core.Workload.Poisson { rate = Rat.one })
      ~model
      ~algorithm:(Core.Runtime.Wtlw { x = Rat.div_int (Rat.sub model.d model.eps) 2 })
      ()
  in
  Accounting.of_load
    (Shard.run cfg (Option.get (Sweep.Packed_type.find "queue")))

let test_healthy_load () =
  let a = load () in
  Alcotest.(check int) "attempted" 2_000 a.attempted;
  Alcotest.(check int) "failed" 0 (Accounting.failed a)

let test_dropped_messages () =
  let a = load ~faults:(Sim.Fault.plan ~seed:1 [ Sim.Fault.drops 0.05 ]) () in
  Alcotest.(check int) "attempted" 2_000 a.attempted;
  Alcotest.(check bool) "ops_failed_frac > 0" true (Accounting.failed_frac a > 0.0)

let test_exhausted_check_budget () =
  let grid =
    {
      Sweep.default_grid with
      types = [ Option.get (Sweep.Packed_type.find "counter") ];
      max_check_nodes = Some 1;
    }
  in
  let t = Sweep.run grid in
  let _, _, failed_cells, _ = Sweep.counts t in
  Alcotest.(check bool) "some cell failed" true (failed_cells > 0);
  Alcotest.(check bool) "ops_failed_frac > 0" true
    (Accounting.failed_frac (Accounting.of_sweep t) > 0.0)

let () =
  Alcotest.run "failure_accounting"
    [
      ( "accounting",
        [
          Alcotest.test_case "healthy load fails nothing" `Quick
            test_healthy_load;
          Alcotest.test_case "dropped messages, raw channel" `Quick
            test_dropped_messages;
          Alcotest.test_case "exhausted check budget" `Quick
            test_exhausted_check_budget;
        ] );
    ]
