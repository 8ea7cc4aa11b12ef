(* End-to-end and per-layer benchmark of the load, certification and
   sweep pipelines.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]

   [--trace 0] measures the end-to-end metrics with no tracing: a
   set-up phase (repeated, median reported), then the pipeline repeated
   until [--seconds] have passed, reporting medians over the
   repetitions.  Each timed interval sits between two passes of a fixed
   reference computation ({!Hostref}), and its time is reported in
   host-independent seconds, so that a shared host's changing speed
   does not show as a change in the program.  [--trace 1] is a separate run on one domain that times
   each layer from outside, by calling the layers' public functions
   inside spans, and reports the per-layer metrics.

   Both modes gate on correctness before printing anything: load runs
   must certify, fingerprints must be equal across repetitions and
   across jobs 1, jobs 2 and the traced run, and the 1M-op history
   must certify while a corrupted copy of it is rejected.  A failed
   gate exits 1 and prints no result.  The last line of a successful
   run is one JSON object: correct, attempted, failed, metrics. *)

open Ledger

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 1)
    fmt

let gate ok fmt =
  Printf.ksprintf (fun msg -> if not ok then fail "gate failed: %s" msg) fmt

(* ---------- sizes ---------- *)

(* Each size is chosen so that one repetition is long enough to time
   well and a 20 s run still holds several repetitions on 2 cores. *)
let load_ops = 150_000
let certify_ops = 1_000_000
let sweep_seeds = 96
let sweep_per_proc = 4
let jobs = 2
let setup_repeats = 7
let warm_up_s = 3.0

(* ---------- statistics and output ---------- *)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float n)) - 1)))

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> fail "no VmHWM in /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let emit (acct : Accounting.t) metrics =
  List.iter
    (fun (name, _, v) ->
      if not (Float.is_finite v) then fail "metric %s is not a finite number" name)
    metrics;
  let body =
    List.map
      (fun (name, unit_, v) ->
        Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}"
          (Span.json_string name) v (Span.json_string unit_))
      metrics
  in
  Printf.printf
    "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    acct.attempted (Accounting.failed acct) (String.concat ", " body)

let timed f =
  let t0 = Span.now () in
  let r = f () in
  (Span.now () -. t0, r)

(* A timed interval [dt] and the host's speed around it: [ref_s] is
   the mean of the {!Hostref} passes timed just before and just after
   it. *)
type interval = { dt : float; ref_s : float }

(* [dt] in host-independent seconds (see {!Hostref}). *)
let normalized_s i = i.dt *. Hostref.nominal_s /. i.ref_s

(* Time [f] between two reference passes.  [before] is the pass that
   ended the previous interval, if any.  The passes allocate nothing, so
   [f]'s garbage does not slow them. *)
let calibrated ?before f =
  let before = match before with Some b -> b | None -> Hostref.time () in
  let dt, r = timed f in
  let after = Hostref.time () in
  ({ dt; ref_s = (before +. after) /. 2.0 }, r, after)

(* Run [f] [setup_repeats] times; each run is an interval, and the
   median is the set-up cost.  The last result is what the run uses.
   Only one result is alive at a time. *)
let setup f =
  let rec go k before intervals =
    let i, r, after = calibrated ?before f in
    if k <= 1 then (i :: intervals, r)
    else go (k - 1) (Some after) (i :: intervals)
  in
  go setup_repeats None []

(* Repeat [f] until [seconds] have passed (at least once).  Returns each
   repetition's interval with [keep] of its result; [keep] runs outside
   the timed interval, so checks and fingerprints cost the measurement
   nothing and the full results need not stay alive.  The full major
   collection after each repetition, also untimed, starts every
   repetition from the same heap instead of the previous one's
   garbage. *)
let repeat_for ~seconds ~keep f =
  let deadline = Span.now () +. float seconds in
  let rec go before reps =
    let i, r, after = calibrated ?before f in
    let reps = (i, keep r) :: reps in
    Gc.full_major ();
    if Span.now () < deadline then go (Some after) reps else List.rev reps
  in
  go None []

(* Every per-layer metric, in BENCHMARK.json order.  A layer that does
   not run on a workload, or cannot be timed apart from outside there,
   reports 0 (see LEDGER.md). *)
let layer_metrics =
  [
    ("workload.gen_s", "s");
    ("workload.minor_words_per_op", "words/op");
    ("workload.lateness_p50", "model_time");
    ("workload.lateness_p999", "model_time");
    ("runtime.self_s", "s");
    ("runtime.minor_words_per_op", "words/op");
    ("runtime.promoted_words_per_op", "words/op");
    ("sim.events_per_op", "events/op");
    ("sim.events_per_s", "events/s");
    ("sim.msgs_per_op", "msgs/op");
    ("sim.latency_p50", "model_time");
    ("sim.latency_p999", "model_time");
    ("monitor.check_s", "s");
    ("monitor.ops_per_s", "ops/s");
    ("monitor.minor_words_per_op", "words/op");
    ("monitor.keys", "count");
    ("monitor.fallbacks", "count");
    ("shard.residual_s", "s");
    ("shard.slowest_s", "s");
    ("shard.imbalance", "ratio");
    ("pool.parallel_eff", "ratio");
    ("gc.minor_collections", "count");
    ("sweep.cell_s_p50", "s");
    ("sweep.cell_s_max", "s");
    ("sweep.unmonitored_s", "s");
    ("sweep.failed_cells", "count");
    ("trace.overhead_frac", "ratio");
  ]

let layers measured =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name layer_metrics) then
        fail "unknown layer metric %s" name)
    measured;
  List.map
    (fun (name, unit_) ->
      (name, unit_, Option.value (List.assoc_opt name measured) ~default:0.0))
    layer_metrics

let per_op x ops = if ops = 0 then 0.0 else x /. float ops

let sim_quantiles hist =
  match Core.Metrics.Hist.quantiles hist with
  | Some q -> (q.p50, q.p999)
  | None -> (0.0, 0.0)

let durations ?(field = fun i -> i.dt) intervals =
  String.concat " " (List.map (fun i -> Printf.sprintf "%.3f" (field i)) intervals)

let print_metric ?(note = "") name unit_ v =
  Printf.printf "metric %s %.6g %s%s\n" name v unit_
    (if note = "" then "" else "  (" ^ note ^ ")")

(* What a timed repetition leaves once its result has been checked. *)
type sim = { hist : Core.Metrics.Hist.t; messages : int; operations : int }
type rep = { fp : string; acct : Accounting.t; sim : sim option }

(* The end-to-end run shared by every workload: [prepare] the input
   [setup_repeats] times, repeat [run] on it for [seconds], check every
   repetition through [summary] (outside the timed interval) and the
   run as a whole through [reference].  Prints every end-to-end metric
   by name with its unit and returns the ones with a bound, which the
   result line carries.  Their times are in host-independent seconds
   (see {!Hostref}); the wall-clock figures are printed beside them. *)
let untraced ~seconds ~prepare ~run ~summary ~reference =
  Hostref.warm_up ~seconds:warm_up_s;
  let setups, input = setup prepare in
  let reps = repeat_for ~seconds (fun () -> run input) ~keep:summary in
  (* Read before the reference checks, which are not the workload. *)
  let peak_rss_mb = peak_rss_mb () in
  let first = snd (List.hd reps) in
  List.iter (fun (_, r) -> gate (r.fp = first.fp) "timed repetitions differ") reps;
  reference input first.fp;
  let acct =
    List.fold_left (fun acc (_, r) -> Accounting.add acc r.acct) Accounting.zero reps
  in
  let intervals = List.map fst reps in
  let print_intervals what l =
    Printf.printf "%d %s: %s s\n  reference pass around each: %s s\n"
      (List.length l) what (durations l)
      (durations ~field:(fun i -> i.ref_s) l)
  in
  print_intervals "set-ups" (List.rev setups);
  print_intervals "repetitions" intervals;
  let ops_per_s seconds =
    median (List.map (fun (i, r) -> float r.acct.certified /. seconds i) reps)
  in
  let setup_s seconds = median (List.map seconds setups) in
  let metrics =
    [
      ("ops_per_s", "ops/s", ops_per_s normalized_s);
      ("setup_s", "s", setup_s normalized_s);
      ("peak_rss_mb", "MB", peak_rss_mb);
    ]
  in
  List.iter (fun (name, unit_, v) -> print_metric name unit_ v) metrics;
  let ref_s = median (List.map (fun i -> i.ref_s) intervals) in
  print_metric "host_ref_s" "s" ref_s
    ~note:(Printf.sprintf "reference pass; nominal %g s" Hostref.nominal_s);
  print_metric "wall_ops_per_s" "ops/s" (ops_per_s (fun i -> i.dt));
  print_metric "wall_setup_s" "s" (setup_s (fun i -> i.dt));
  print_metric "ops_failed_frac" "ratio" (Accounting.failed_frac acct)
    ~note:
      (Printf.sprintf "%d of %d operations" (Accounting.failed acct)
         acct.attempted);
  (match first.sim with
  | None ->
      print_endline
        "sim_latency_p50, sim_latency_p999, msgs_per_op: not reported, no \
         simulator runs"
  | Some sim ->
      let n = Core.Metrics.Hist.count sim.hist in
      let p50, p999 = sim_quantiles sim.hist in
      print_metric "sim_latency_p50" "model_time" p50
        ~note:(Printf.sprintf "%d samples" n);
      print_metric "sim_latency_p999" "model_time" p999
        ~note:(Printf.sprintf "%d samples, %d beyond p999" n (n / 1000));
      print_metric "msgs_per_op" "msgs/op"
        (per_op (float sim.messages) sim.operations));
  (acct, metrics)

let packed key =
  match Sweep.Packed_type.find key with
  | Some pt -> pt
  | None -> fail "unknown data type %s" key

(* ---------- load-balanced, load-skewed ---------- *)

let model = Sim.Model.make_optimal_eps ~n:4 ~d:(Rat.of_int 12) ~u:(Rat.of_int 4)

let algorithm =
  Core.Runtime.Wtlw { x = Rat.div_int (Rat.sub model.d model.eps) 2 }

type load = { type_key : string; zipf : float; arrival : Core.Workload.arrival }

let load_cfg l ~seed ~ops =
  Shard.Config.make ~keys:64 ~zipf:l.zipf ~seed ~shards:4 ~ops
    ~arrival:l.arrival ~model ~algorithm ()

let gate_load_certified what (t : Shard.t) =
  gate t.certified "%s load run not certified" what

let warm_load l ~seed ~jobs pt =
  gate_load_certified "warm-up"
    (Shard.run ~jobs (load_cfg l ~seed ~ops:(load_ops / 10)) pt)

let load_untraced l ~seed ~seconds =
  let pt = packed l.type_key in
  untraced ~seconds
    ~prepare:(fun () ->
      warm_load l ~seed ~jobs pt;
      load_cfg l ~seed ~ops:load_ops)
    ~run:(fun cfg -> Shard.run ~jobs cfg pt)
    ~summary:(fun (t : Shard.t) ->
      gate_load_certified "timed" t;
      {
        fp = Shard.fingerprint t;
        acct = Accounting.of_load t;
        sim =
          Some { hist = t.hist; messages = t.messages; operations = t.operations };
      })
    ~reference:(fun cfg fp ->
      gate
        (Shard.fingerprint (Shard.run ~jobs:1 cfg pt) = fp)
        "jobs %d fingerprint differs from jobs 1" jobs)

(* The layers of [Shard.Make.run_shard], called one at a time so that
   each can be timed: workload generation, the runtime (simulator,
   protocol handlers, trace sinks), per-key projection, and the
   monitors.  The traced run checks that the reports built here
   fingerprint identically to [Shard.run]'s, so this copy cannot drift
   from the code it times. *)
module Load_layers (T : Spec.Data_type.S) = struct
  module KT = Spec.Keyed.Make (T)
  module R = Core.Runtime.Make (KT)
  module Mon = Monitor.Make (T)
  module S = Shard.Make (T)
  module Route = Core.Workload.Route

  (* [Shard]'s per-shard seed: FNV-1a of its canonical shard key. *)
  let shard_seed (cfg : Shard.Config.t) ~shard =
    let m = cfg.model in
    let key =
      Printf.sprintf
        "shard=%d/%d;type=%s;algo=%s;n=%d;d=%s;u=%s;eps=%s;ops=%d;keys=%d;arrival=%s;zipf=%g;faults=%s;leg=%s;seed=%d"
        shard cfg.shards T.name
        (Core.Runtime.algorithm_name cfg.algorithm)
        m.n (Rat.to_string m.d) (Rat.to_string m.u) (Rat.to_string m.eps)
        cfg.ops cfg.keys
        (Core.Workload.arrival_label cfg.arrival)
        cfg.zipf
        (Sim.Fault.describe cfg.faults)
        (match cfg.channel with None -> "raw" | Some _ -> "reliable")
        cfg.seed
    in
    let h = ref 0x811c9dc5 in
    String.iter
      (fun ch -> h := (!h lxor Char.code ch) * 0x01000193 land 0xFFFFFFFF)
      key;
    !h

  let route (cfg : Shard.Config.t) ~shard =
    Route.create ~procs:cfg.model.n
      ~keep:(fun k -> k mod cfg.shards = shard)
      (Core.Workload.Gen.create ~arrival:cfg.arrival ~zipf:cfg.zipf
         ~keys:cfg.keys ~ops:cfg.ops ~seed:cfg.seed
         ~invocation:(fun rng ~key:_ ~seq -> T.gen_tagged rng ~tag:seq)
         ())

  (* Pull every process's feed round-robin, the order arrivals are
     dealt in, so the router's buffers stay O(procs). *)
  let drain (cfg : Shard.Config.t) ~shard f =
    let r = route cfg ~shard in
    let procs = cfg.model.n in
    let live = Array.make procs true and n_live = ref procs in
    while !n_live > 0 do
      for proc = 0 to procs - 1 do
        if live.(proc) then
          match Route.next r ~proc with
          | Some (_, item) -> f proc item
          | None ->
              live.(proc) <- false;
              decr n_live
      done
    done

  type shard_run = {
    report : Shard.shard_report;
    operations : (KT.invocation, KT.response) Sim.Trace.operation list;
    drained : int;
  }

  let run_shard (cfg : Shard.Config.t) ~shard =
    if cfg.checker <> Core.Runtime.Monitor then
      invalid_arg "Load_layers: monitor checker only";
    Span.record "shard" ~label:(string_of_int shard) (fun () ->
        let m = cfg.model in
        let drained = ref 0 in
        Span.record "workload.gen" (fun () ->
            drain cfg ~shard (fun _ _ -> incr drained));
        let sseed = shard_seed cfg ~shard in
        let r = route cfg ~shard in
        let next ~proc =
          match Route.next r ~proc with
          | None -> None
          | Some (at, item) -> Some (at, { KT.key = item.key; inv = item.inv })
        in
        let max_events =
          match cfg.max_events with
          | Some e -> e
          | None -> (200 * (cfg.ops / cfg.shards)) + 200_000
        in
        let rcfg =
          R.Config.make ~check:false ~retain_events:false
            ~faults:{ cfg.faults with seed = sseed }
            ~max_events ~model:m
            ~offsets:(Array.make m.n Rat.zero)
            ~delay:(Sim.Net.random_model ~seed:sseed m)
            ~algorithm:cfg.algorithm ~workload:(R.Paced { next }) ()
        in
        let rcfg =
          match cfg.channel with
          | None -> rcfg
          | Some config -> R.Config.reliable ~config rcfg
        in
        let report = Span.record "runtime" (fun () -> R.run rcfg) in
        let by_key =
          Span.record "shard.project" (fun () ->
              let by_key = Hashtbl.create 64 in
              List.iter
                (fun (op : (KT.invocation, KT.response) Sim.Trace.operation) ->
                  let key = op.inv.KT.key in
                  let projected =
                    {
                      Sim.Trace.proc = op.proc;
                      inv = op.inv.KT.inv;
                      resp = op.resp;
                      inv_time = op.inv_time;
                      resp_time = op.resp_time;
                    }
                  in
                  match Hashtbl.find_opt by_key key with
                  | Some cell -> cell := projected :: !cell
                  | None -> Hashtbl.add by_key key (ref [ projected ]))
                report.operations;
              by_key)
        in
        let keys =
          List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) by_key [])
        in
        let uncertified, fallbacks =
          Span.record "monitor" (fun () ->
              List.fold_left
                (fun (unc, fb) key ->
                  let r =
                    Mon.check ?max_nodes:cfg.max_check_nodes
                      (List.rev !(Hashtbl.find by_key key))
                  in
                  ( (if r.Mon.linearizable then unc else key :: unc),
                    if Option.is_some r.Mon.fallback then fb + 1 else fb ))
                ([], 0) keys)
        in
        let uncertified_keys = List.rev uncertified in
        let linearizable = uncertified_keys = [] in
        let healthy =
          report.pending = 0 && (not report.truncated)
          && report.delays_admissible && report.skew_admissible
        in
        {
          report =
            {
              Shard.shard;
              keys = List.length keys;
              operations = List.length report.operations;
              messages = report.messages;
              events = report.events;
              pending = report.pending;
              truncated = report.truncated;
              delays_admissible = report.delays_admissible;
              skew_admissible = report.skew_admissible;
              faults = report.faults;
              linearizable;
              uncertified_keys;
              fallbacks;
              checked_by =
                Printf.sprintf "per-key monitor (%d keys, %d fallbacks)"
                  (List.length keys) fallbacks;
              certified = healthy && linearizable;
              hist = report.hist;
              by_op = report.by_op;
            };
          operations = report.operations;
          drained = !drained;
        })

  (* How late each invocation ran behind its generated arrival time:
     under [Paced] backpressure an arrival waits for the response to
     the process's previous operation.  Each process's k-th pulled
     arrival is its k-th invocation. *)
  let lateness (cfg : Shard.Config.t) ~shard operations =
    let n = cfg.model.n in
    let due = Array.make n [] and invoked = Array.make n [] in
    drain cfg ~shard (fun proc (item : _ Core.Workload.keyed) ->
        due.(proc) <- item.at :: due.(proc));
    List.iter
      (fun (op : (KT.invocation, KT.response) Sim.Trace.operation) ->
        invoked.(op.proc) <- op.inv_time :: invoked.(op.proc))
      operations;
    let late = ref [] in
    for p = 0 to n - 1 do
      let rec pair due inv =
        match (due, inv) with
        | d :: ds, i :: is ->
            let l = Rat.sub i d in
            if Rat.sign l < 0 then fail "invocation before its arrival";
            late := Rat.to_float l :: !late;
            pair ds is
        | _ -> ()
      in
      pair (List.rev due.(p)) (List.sort Rat.compare invoked.(p))
    done;
    !late
end

let load_traced l ~seed =
  let pt = packed l.type_key in
  let cfg = load_cfg l ~seed ~ops:load_ops in
  let module T = (val Sweep.Packed_type.modl pt) in
  let module L = Load_layers (T) in
  warm_load l ~seed ~jobs:1 pt;
  let untraced () =
    let w, j1 = timed (fun () -> Shard.run ~jobs:1 cfg pt) in
    gate_load_certified "jobs 1" j1;
    (w, j1)
  in
  let w1_before, j1 = untraced () in
  let late = ref [] in
  let runs =
    Array.init cfg.shards (fun shard ->
        let run = L.run_shard cfg ~shard in
        late := List.rev_append (L.lateness cfg ~shard run.operations) !late;
        { run with operations = [] })
  in
  let reports = Array.map (fun (r : L.shard_run) -> r.report) runs in
  let rebuilt (reports : Shard.shard_report array) =
    let hist = Core.Metrics.Hist.create () in
    Array.iter (fun (r : Shard.shard_report) -> Core.Metrics.Hist.merge hist r.hist) reports;
    let sum f = Array.fold_left (fun acc r -> acc + f r) 0 reports in
    {
      j1 with
      reports = Array.map (fun r -> Sweep.Pool.Done r) reports;
      hist;
      operations = sum (fun r -> r.operations);
      messages = sum (fun r -> r.messages);
      events = sum (fun r -> r.events);
      pending = sum (fun r -> r.pending);
      certified = Array.for_all (fun (r : Shard.shard_report) -> r.certified) reports;
    }
  in
  let traced = rebuilt reports in
  gate_load_certified "traced" traced;
  (* Untraced runs on both sides of the traced one, so heap growth
     carried from run to run does not bias the overhead. *)
  let w1_after, _ = untraced () in
  let w1 = (w1_before +. w1_after) /. 2.0 in
  gate
    (Shard.fingerprint traced = Shard.fingerprint j1)
    "traced fingerprint differs from jobs 1";
  (* The shards on a [jobs]-domain pool, each timed inside its
     worker: busy time for the parallel efficiency. *)
  let busy = Array.make cfg.shards 0.0 in
  let g0 = Gc.quick_stat () in
  let w2, (outcomes, _) =
    timed (fun () ->
        Sweep.Pool.map ~jobs ~fail_fast:false ~n:cfg.shards
          ~init:ignore (fun () shard ->
            let b, r = timed (fun () -> L.S.run_shard cfg ~shard) in
            busy.(shard) <- b;
            Ok r))
  in
  let g1 = Gc.quick_stat () in
  let pooled =
    Array.map
      (function Sweep.Pool.Done r -> r | _ -> fail "pooled shard failed")
      outcomes
  in
  gate
    (Shard.fingerprint (rebuilt pooled) = Shard.fingerprint j1)
    "jobs %d fingerprint differs from jobs 1" jobs;
  let ops = traced.operations in
  let per_shard name =
    Array.of_list (List.map Span.duration (Span.named name))
  in
  let s = per_shard "shard" and g = per_shard "workload.gen" in
  let r = per_shard "runtime" and m = per_shard "monitor" in
  let gen_s = Array.fold_left ( +. ) 0.0 g in
  let runtime_self_s = Span.total_s "runtime" -. gen_s in
  let monitor_s = Span.total_s "monitor" in
  let shard_s = Array.mapi (fun i si -> si -. g.(i)) s in
  let traced_s = Array.fold_left ( +. ) 0.0 shard_s in
  let residual_s =
    traced_s -. Array.fold_left ( +. ) 0.0 r -. Array.fold_left ( +. ) 0.0 m
  in
  let mw name = Span.sum (fun s -> s.minor_words) name in
  let pw name = Span.sum (fun s -> s.promoted_words) name in
  let drained = Array.fold_left (fun acc (r : L.shard_run) -> acc + r.drained) 0 runs in
  let late = Array.of_list !late in
  Array.sort compare late;
  let sum_int f = Array.fold_left (fun acc r -> acc + f r) 0 reports in
  let shard_ops = Array.map (fun (r : Shard.shard_report) -> float r.operations) reports in
  let p50, p999 = sim_quantiles traced.hist in
  Printf.printf
    "jobs 1: %.3f s untraced, %.3f s traced = gen %.3f + runtime %.3f + \
     monitor %.3f + residual %.3f; jobs %d: %.3f s\n"
    w1 traced_s gen_s runtime_self_s monitor_s residual_s jobs w2;
  Printf.printf "sim latency over %d operations, lateness over %d arrivals\n"
    ops (Array.length late);
  ( Accounting.of_load traced,
    (layers
       [
         ("workload.gen_s", gen_s);
         ("workload.minor_words_per_op", per_op (mw "workload.gen") drained);
         ("workload.lateness_p50", percentile late 0.5);
         ("workload.lateness_p999", percentile late 0.999);
         ("runtime.self_s", runtime_self_s);
         ( "runtime.minor_words_per_op",
           per_op (mw "runtime" -. mw "workload.gen") ops );
         ( "runtime.promoted_words_per_op",
           per_op (pw "runtime" -. pw "workload.gen") ops );
         ("sim.events_per_op", per_op (float traced.events) ops);
         ("sim.events_per_s", float traced.events /. runtime_self_s);
         ("sim.msgs_per_op", per_op (float traced.messages) ops);
         ("sim.latency_p50", p50);
         ("sim.latency_p999", p999);
         ("monitor.check_s", monitor_s);
         ("monitor.ops_per_s", float ops /. monitor_s);
         ("monitor.minor_words_per_op", per_op (mw "monitor") ops);
         ("monitor.keys", float (sum_int (fun r -> r.keys)));
         ("monitor.fallbacks", float (sum_int (fun r -> r.fallbacks)));
         ("shard.residual_s", residual_s);
         ("shard.slowest_s", Array.fold_left max 0.0 shard_s);
         ( "shard.imbalance",
           Array.fold_left max 0.0 shard_ops
           /. (Array.fold_left ( +. ) 0.0 shard_ops /. float cfg.shards) );
         ( "pool.parallel_eff",
           Array.fold_left ( +. ) 0.0 busy /. (float jobs *. w2) );
         ( "gc.minor_collections",
           float (g1.minor_collections - g0.minor_collections) );
         ("trace.overhead_frac", (traced_s /. w1) -. 1.0);
       ]) )

(* ---------- certify-1m ---------- *)

module Mon_queue = Monitor.Make (Spec.Fifo_queue)

let generate ~seed = Mon_queue.generate ~seed ~n:certify_ops ()

let gate_rejects_corrupt ops =
  let bad, swapped = Mon_queue.corrupt ops in
  gate swapped "no swappable pair to corrupt";
  gate (not (Mon_queue.check bad).linearizable) "corrupted history accepted"

let gate_check_result what (r : Mon_queue.result) =
  gate r.linearizable "%s: generated history not linearizable" what

let certify_untraced ~seed ~seconds =
  untraced ~seconds
    ~prepare:(fun () -> generate ~seed)
    ~run:(fun ops -> Mon_queue.check ops)
    ~summary:(fun r ->
      gate_check_result "timed" r;
      {
        fp = Monitor.method_to_string r.method_;
        acct = { attempted = certify_ops; certified = certify_ops };
        sim = None;
      })
    ~reference:(fun ops _ -> gate_rejects_corrupt ops)

let certify_traced ~seed =
  let ops = Span.record "workload.gen" (fun () -> generate ~seed) in
  let untraced () =
    let dt, r = timed (fun () -> Mon_queue.check ops) in
    gate_check_result "untraced" r;
    dt
  in
  let before = untraced () in
  let g0 = Gc.quick_stat () in
  let r = Span.record "monitor" (fun () -> Mon_queue.check ops) in
  let g1 = Gc.quick_stat () in
  gate_check_result "traced" r;
  let untraced_s = (before +. untraced ()) /. 2.0 in
  gate_rejects_corrupt ops;
  let check_s = Span.total_s "monitor" in
  Printf.printf "check: %.3f s untraced, %.3f s traced\n" untraced_s check_s;
  ( { Accounting.attempted = certify_ops; certified = certify_ops },
    (layers
       [
         ("workload.gen_s", Span.total_s "workload.gen");
         ( "workload.minor_words_per_op",
           per_op (Span.sum (fun s -> s.minor_words) "workload.gen") certify_ops
         );
         ("monitor.check_s", check_s);
         ("monitor.ops_per_s", float certify_ops /. check_s);
         ( "monitor.minor_words_per_op",
           per_op (Span.sum (fun s -> s.minor_words) "monitor") certify_ops );
         ("monitor.keys", 1.0);
         ("monitor.fallbacks", if Option.is_some r.fallback then 1.0 else 0.0);
         ( "gc.minor_collections",
           float (g1.minor_collections - g0.minor_collections) );
         ("trace.overhead_frac", (check_s /. untraced_s) -. 1.0);
       ]) )

(* ---------- sweep-grid ---------- *)

(* [Sweep.default_grid] over [sweep_seeds] consecutive seeds. *)
let sweep_grid ~seed =
  {
    Sweep.default_grid with
    seeds = List.init sweep_seeds (fun i -> (seed * sweep_seeds) + i);
    per_proc = sweep_per_proc;
  }

(* An eighth of the grid's seeds. *)
let warm_sweep grid ~jobs =
  ignore
    (Sweep.run ~jobs
       { grid with Sweep.seeds = List.filteri (fun i _ -> i mod 8 = 0) grid.Sweep.seeds })

let sweep_sim (t : Sweep.t) =
  Array.fold_left
    (fun sim -> function
      | Sweep.Pool.Done (v : Sweep.verdict) ->
          {
            sim with
            messages = sim.messages + v.messages;
            operations = sim.operations + v.operations;
          }
      | _ -> sim)
    { hist = t.hist; messages = 0; operations = 0 }
    t.results

let sweep_untraced ~seed ~seconds =
  untraced ~seconds
    ~prepare:(fun () ->
      let grid = sweep_grid ~seed in
      warm_sweep grid ~jobs;
      grid)
    ~run:(fun grid -> Sweep.run ~jobs grid)
    ~summary:(fun t ->
      {
        fp = Sweep.fingerprint t;
        acct = Accounting.of_sweep t;
        sim = Some (sweep_sim t);
      })
    ~reference:(fun grid fp ->
      gate
        (Sweep.fingerprint (Sweep.run ~jobs:1 grid) = fp)
        "jobs %d fingerprint differs from jobs 1" jobs)

let sweep_traced ~seed =
  let grid = sweep_grid ~seed in
  warm_sweep grid ~jobs:1;
  let untraced () = timed (fun () -> Sweep.run ~jobs:1 grid) in
  let w1_before, j1 = untraced () in
  let g0 = Gc.quick_stat () in
  let w2, j2 = timed (fun () -> Sweep.run ~jobs grid) in
  let g1 = Gc.quick_stat () in
  let fp = Sweep.fingerprint j2 in
  gate (Sweep.fingerprint j1 = fp) "jobs %d fingerprint differs from jobs 1" jobs;
  let results =
    Array.map
      (fun cell ->
        Span.record "sweep.cell" ~label:(Sweep.cell_key grid cell) (fun () ->
            match Sweep.eval grid cell with
            | Ok v -> Sweep.Pool.Done v
            | Error msg -> Sweep.Pool.Failed msg))
      j2.cells
  in
  gate
    (Sweep.fingerprint { j2 with results } = fp)
    "traced cells differ from jobs %d" jobs;
  let w1_after, _ = untraced () in
  let w1 = (w1_before +. w1_after) /. 2.0 in
  let spans = Array.of_list (Span.named "sweep.cell") in
  let cell_s = Array.map Span.duration spans in
  let traced_s = Array.fold_left ( +. ) 0.0 cell_s in
  let slowest = ref 0 in
  Array.iteri (fun i s -> if s > cell_s.(!slowest) then slowest := i) cell_s;
  let unmonitored_s = ref 0.0 in
  Array.iteri
    (fun i (c : Sweep.cell) ->
      if Monitor.monitored_kind (Sweep.Packed_type.modl c.dt) = None then
        unmonitored_s := !unmonitored_s +. cell_s.(i))
    j2.cells;
  let sorted = Array.copy cell_s in
  Array.sort compare sorted;
  let failed_cells =
    Array.fold_left
      (fun acc o -> match o with Sweep.Pool.Done _ -> acc | _ -> acc + 1)
      0 results
  in
  let sim = sweep_sim { j2 with results } in
  let events =
    Array.fold_left
      (fun acc -> function Sweep.Pool.Done v -> acc + v.Sweep.events | _ -> acc)
      0 results
  in
  let busy = Array.fold_left (fun acc (m : Sweep.cell_meta) -> acc +. m.wall_s) 0.0 j2.meta in
  let p50, p999 = sim_quantiles sim.hist in
  Printf.printf
    "%d cells: jobs 1 %.3f s untraced, %.3f s traced; jobs %d %.3f s; \
     slowest cell %.3f s: %s\nsim latency over %d operations\n"
    (Array.length cell_s) w1 traced_s jobs w2 cell_s.(!slowest)
    spans.(!slowest).label sim.operations;
  ( Accounting.of_sweep { j2 with results },
    (layers
       [
         ("sim.events_per_op", per_op (float events) sim.operations);
         ("sim.msgs_per_op", per_op (float sim.messages) sim.operations);
         ("sim.latency_p50", p50);
         ("sim.latency_p999", p999);
         ("pool.parallel_eff", busy /. (float jobs *. w2));
         ( "gc.minor_collections",
           float (g1.minor_collections - g0.minor_collections) );
         ("sweep.cell_s_p50", percentile sorted 0.5);
         ("sweep.cell_s_max", cell_s.(!slowest));
         ("sweep.unmonitored_s", !unmonitored_s);
         ("sweep.failed_cells", float failed_cells);
         ("trace.overhead_frac", (traced_s /. w1) -. 1.0);
       ]) )

(* ---------- command line ---------- *)

let workloads =
  [
    ( "load-balanced",
      `Load
        {
          type_key = "queue";
          zipf = 0.0;
          arrival = Core.Workload.Poisson { rate = Rat.one };
        } );
    ( "load-skewed",
      `Load
        {
          type_key = "register";
          zipf = 1.0;
          arrival = Core.Workload.Bursty { rate = Rat.one; size = 8 };
        } );
    ("certify-1m", `Certify);
    ("sweep-grid", `Sweep);
  ]

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 in
  let trace = ref (-1) and spans = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S length of the timed region");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--spans", Arg.Set_string spans, "PATH write the traced run's spans here");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let kind =
    match List.assoc_opt !workload workloads with
    | Some k -> k
    | None ->
        fail "unknown workload %S (one of %s)" !workload
          (String.concat ", " (List.map fst workloads))
  in
  if !seed < 0 then fail "--seed must be >= 0";
  if !seconds < 1 then fail "--seconds must be >= 1";
  Printf.printf "workload %s seed %d, OCaml %s, %d domains recommended\n%!"
    !workload !seed Sys.ocaml_version
    (Domain.recommended_domain_count ());
  let acct, metrics =
    match (!trace, kind) with
    | 0, `Load l -> load_untraced l ~seed:!seed ~seconds:!seconds
    | 0, `Certify -> certify_untraced ~seed:!seed ~seconds:!seconds
    | 0, `Sweep -> sweep_untraced ~seed:!seed ~seconds:!seconds
    | 1, `Load l -> load_traced l ~seed:!seed
    | 1, `Certify -> certify_traced ~seed:!seed
    | 1, `Sweep -> sweep_traced ~seed:!seed
    | _ -> fail "--trace must be 0 or 1"
  in
  if !spans <> "" then Span.write !spans;
  emit acct metrics
