(* Tests for the discrete-event engine: timers, message delays, clock
   offsets, response pairing, determinism, and failure modes. *)

let rat = Rat.make
let model = Sim.Model.make ~n:3 ~d:(rat 10 1) ~u:(rat 4 1) ~eps:(rat 2 1)

(* A toy protocol: "ping" sends to the next process and responds on the
   echo; "wait" sets a timer and responds when it fires, recording the
   local clock value it observed. *)
type msg = Ping | Pong
type tag = Alarm

let make_engine ?(offsets = Array.make 3 Rat.zero) ?(delay = Sim.Net.constant (rat 8 1))
    ?(alarm = rat 5 1) ~on_local_time () =
  let on_invoke (ctx : (msg, tag, string) Sim.Engine.ctx) inv =
    match inv with
    | "ping" -> ctx.send ~dst:((ctx.self + 1) mod ctx.n) Ping
    | "wait" -> ignore (ctx.set_timer_after alarm Alarm)
    | "clock" ->
        on_local_time ctx.self ctx.local_time;
        ctx.respond "clocked"
    | "broadcast" -> ctx.broadcast Ping
    | _ -> Alcotest.failf "unknown invocation %s" inv
  in
  let on_receive (ctx : (msg, tag, string) Sim.Engine.ctx) ~src msg =
    match msg with
    | Ping -> ctx.send ~dst:src Pong
    | Pong -> ctx.respond "echoed"
  in
  let on_timer (ctx : (msg, tag, string) Sim.Engine.ctx) Alarm =
    ctx.respond "alarm"
  in
  Sim.Engine.create ~model ~offsets ~delay
    ~handlers:{ on_invoke; on_receive; on_timer }
    ()

let no_clock _ _ = ()

let test_ping_roundtrip () =
  let e = make_engine ~on_local_time:no_clock () in
  Sim.Engine.schedule_invoke e ~at:Rat.zero ~proc:0 "ping";
  Sim.Engine.run e;
  let ops = Sim.Trace.operations (Sim.Engine.trace e) in
  match ops with
  | [ op ] ->
      Alcotest.(check string) "resp" "echoed" op.resp;
      Alcotest.(check string) "latency = 2 * 8" "16"
        (Rat.to_string (Rat.sub op.resp_time op.inv_time))
  | _ -> Alcotest.fail "expected one operation"

let test_timer_latency () =
  let e = make_engine ~alarm:(rat 7 2) ~on_local_time:no_clock () in
  Sim.Engine.schedule_invoke e ~at:(rat 1 1) ~proc:2 "wait";
  Sim.Engine.run e;
  let ops = Sim.Trace.operations (Sim.Engine.trace e) in
  match ops with
  | [ op ] ->
      Alcotest.(check string) "resp" "alarm" op.resp;
      Alcotest.(check string) "fires after exactly 7/2" "7/2"
        (Rat.to_string (Rat.sub op.resp_time op.inv_time))
  | _ -> Alcotest.fail "expected one operation"

let test_local_clock_offsets () =
  let seen = ref [] in
  let offsets = [| Rat.zero; rat 1 1; rat (-1) 1 |] in
  let e =
    make_engine ~offsets ~on_local_time:(fun proc t -> seen := (proc, t) :: !seen)
      ()
  in
  List.iter
    (fun proc -> Sim.Engine.schedule_invoke e ~at:(rat 5 1) ~proc "clock")
    [ 0; 1; 2 ];
  Sim.Engine.run e;
  let lookup proc = Rat.to_string (List.assoc proc !seen) in
  Alcotest.(check string) "p0 local = real" "5" (lookup 0);
  Alcotest.(check string) "p1 local = real + 1" "6" (lookup 1);
  Alcotest.(check string) "p2 local = real - 1" "4" (lookup 2)

let test_skew_rejected () =
  match
    make_engine ~offsets:[| Rat.zero; rat 5 1; Rat.zero |]
      ~on_local_time:no_clock ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "offsets beyond eps must be rejected"

let test_broadcast_counts () =
  let e = make_engine ~on_local_time:no_clock () in
  Sim.Engine.schedule_invoke e ~at:Rat.zero ~proc:1 "broadcast";
  (* The protocol never responds to "broadcast"; drain events anyway. *)
  (try Sim.Engine.run e with _ -> ());
  let sends =
    List.filter
      (function Sim.Trace.Send _ -> true | _ -> false)
      (Sim.Trace.events (Sim.Engine.trace e))
  in
  (* broadcast = n-1 pings, each answered by a pong to p1. *)
  Alcotest.(check int) "2 pings + 2 pongs" 4 (List.length sends)

let test_matrix_delays_respected () =
  let m = Sim.Net.uniform_matrix ~n:3 (rat 8 1) in
  m.(0).(1) <- rat 6 1;
  m.(1).(0) <- rat 10 1;
  let e = make_engine ~delay:(Sim.Net.matrix m) ~on_local_time:no_clock () in
  Sim.Engine.schedule_invoke e ~at:Rat.zero ~proc:0 "ping";
  Sim.Engine.run e;
  let ops = Sim.Trace.operations (Sim.Engine.trace e) in
  Alcotest.(check string) "latency 6 + 10" "16"
    (Rat.to_string
       (let op = List.hd ops in
        Rat.sub op.resp_time op.inv_time));
  let delays =
    List.map (fun (_, _, d) -> Rat.to_string d)
      (Sim.Trace.message_delays (Sim.Engine.trace e))
  in
  Alcotest.(check (list string)) "recorded delays" [ "6"; "10" ] delays

let test_determinism () =
  let run () =
    let e = make_engine ~on_local_time:no_clock () in
    Sim.Engine.schedule_invoke e ~at:Rat.zero ~proc:0 "ping";
    Sim.Engine.schedule_invoke e ~at:Rat.zero ~proc:1 "ping";
    Sim.Engine.schedule_invoke e ~at:(rat 1 2) ~proc:2 "wait";
    Sim.Engine.run e;
    List.map
      (fun (op : (string, string) Sim.Trace.operation) ->
        (op.proc, op.inv, op.resp, Rat.to_string op.resp_time))
      (Sim.Trace.operations (Sim.Engine.trace e))
  in
  Alcotest.(check bool) "two identical runs" true (run () = run ())

let test_double_invoke_rejected () =
  let e = make_engine ~on_local_time:no_clock () in
  Sim.Engine.schedule_invoke e ~at:Rat.zero ~proc:0 "ping";
  Sim.Engine.schedule_invoke e ~at:(rat 1 1) ~proc:0 "ping";
  (* The second invocation lands while the first is pending. *)
  match Sim.Engine.run e with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "overlapping invocation must be rejected"

let test_invoke_in_past_rejected () =
  let e = make_engine ~on_local_time:no_clock () in
  Sim.Engine.schedule_invoke e ~at:(rat 2 1) ~proc:0 "wait";
  Sim.Engine.run e;
  match Sim.Engine.schedule_invoke e ~at:Rat.zero ~proc:0 "wait" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "scheduling in the past must be rejected"

let test_response_callback_closed_loop () =
  let e = make_engine ~on_local_time:no_clock () in
  let completions = ref 0 in
  Sim.Engine.set_response_callback e (fun ~proc ~inv:_ ~resp:_ ~time ->
      incr completions;
      if !completions < 3 then
        Sim.Engine.schedule_invoke e ~at:(Rat.add time Rat.one) ~proc "ping");
  Sim.Engine.schedule_invoke e ~at:Rat.zero ~proc:0 "ping";
  Sim.Engine.run e;
  Alcotest.(check int) "three chained operations" 3 !completions;
  Alcotest.(check int) "trace agrees" 3
    (Sim.Trace.operation_count (Sim.Engine.trace e))

let test_step_limit () =
  (* A self-perpetuating timer chain must hit the step limit. *)
  let on_invoke (ctx : (unit, unit, unit) Sim.Engine.ctx) () =
    ignore (ctx.set_timer_after Rat.one ())
  in
  let on_timer (ctx : (unit, unit, unit) Sim.Engine.ctx) () =
    ignore (ctx.set_timer_after Rat.one ())
  in
  let e =
    Sim.Engine.create ~model ~offsets:(Array.make 3 Rat.zero)
      ~delay:(Sim.Net.constant (rat 8 1))
      ~handlers:
        { on_invoke; on_receive = (fun _ ~src:_ () -> ()); on_timer }
      ()
  in
  Sim.Engine.schedule_invoke e ~at:Rat.zero ~proc:0 ();
  match Sim.Engine.run ~max_events:500 e with
  | exception Sim.Engine.Step_limit_exceeded 500 -> ()
  | _ -> Alcotest.fail "expected step limit"

let test_send_validation () =
  let on_invoke (ctx : (unit, unit, unit) Sim.Engine.ctx) target =
    ctx.send ~dst:target ()
  in
  let make () =
    Sim.Engine.create ~model ~offsets:(Array.make 3 Rat.zero)
      ~delay:(Sim.Net.constant (rat 8 1))
      ~handlers:
        {
          on_invoke;
          on_receive = (fun _ ~src:_ () -> ());
          on_timer = (fun _ () -> ());
        }
      ()
  in
  (* Sending to self and out-of-range destinations is rejected. *)
  List.iter
    (fun target ->
      let e = make () in
      Sim.Engine.schedule_invoke e ~at:Rat.zero ~proc:1 target;
      match Sim.Engine.run e with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "send to %d must be rejected" target)
    [ 1; -1; 7 ];
  (* Negative timer durations are rejected too. *)
  let on_invoke (ctx : (unit, unit, unit) Sim.Engine.ctx) () =
    ignore (ctx.set_timer_after (rat (-1) 1) ())
  in
  let e =
    Sim.Engine.create ~model ~offsets:(Array.make 3 Rat.zero)
      ~delay:(Sim.Net.constant (rat 8 1))
      ~handlers:
        {
          on_invoke;
          on_receive = (fun _ ~src:_ () -> ());
          on_timer = (fun _ () -> ());
        }
      ()
  in
  Sim.Engine.schedule_invoke e ~at:Rat.zero ~proc:0 ();
  (match Sim.Engine.run e with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative timer duration must be rejected")

let test_cancelled_timer_does_not_fire () =
  let fired = ref false in
  let on_invoke (ctx : (unit, string, string) Sim.Engine.ctx) _ =
    let id = ctx.set_timer_after Rat.one "boom" in
    ctx.cancel_timer id;
    ignore (ctx.set_timer_after (rat 2 1) "ok")
  in
  let on_timer (ctx : (unit, string, string) Sim.Engine.ctx) tag =
    if tag = "boom" then fired := true else ctx.respond tag
  in
  let e =
    Sim.Engine.create ~model ~offsets:(Array.make 3 Rat.zero)
      ~delay:(Sim.Net.constant (rat 8 1))
      ~handlers:
        { on_invoke; on_receive = (fun _ ~src:_ () -> ()); on_timer }
      ()
  in
  Sim.Engine.schedule_invoke e ~at:Rat.zero ~proc:0 "go";
  Sim.Engine.run e;
  Alcotest.(check bool) "cancelled timer silent" false !fired;
  Alcotest.(check int) "the live timer responded" 1
    (Sim.Trace.operation_count (Sim.Engine.trace e))

(* Regression: the cancelled-timer table must not leak.  Each cancelled
   id's queue entry is its only consumer; before the fix the dispatcher
   removed the id only on the fire path, so a timer-churning run grew
   the table without bound. *)
let test_cancelled_table_drains () =
  let rounds = 500 in
  let count = ref 0 in
  let churn (ctx : (unit, string, string) Sim.Engine.ctx) =
    if !count < rounds then begin
      incr count;
      let doomed = ctx.set_timer_after Rat.one "doomed" in
      ctx.cancel_timer doomed;
      ignore (ctx.set_timer_after Rat.one "tick")
    end
  in
  let on_invoke ctx _ = churn ctx in
  let on_timer (ctx : (unit, string, string) Sim.Engine.ctx) tag =
    if tag = "doomed" then Alcotest.fail "cancelled timer fired";
    churn ctx
  in
  let e =
    Sim.Engine.create ~model ~offsets:(Array.make 3 Rat.zero)
      ~delay:(Sim.Net.constant (rat 8 1))
      ~handlers:{ on_invoke; on_receive = (fun _ ~src:_ () -> ()); on_timer }
      ()
  in
  Sim.Engine.schedule_invoke e ~at:Rat.zero ~proc:0 "go";
  Sim.Engine.run ~max_events:(8 * rounds) e;
  Alcotest.(check int) "all rounds ran" rounds !count;
  Alcotest.(check int) "cancelled table drained" 0
    (Sim.Engine.cancelled_timers e)

(* The same invariant when the cancelling process crashes before the
   cancelled entry pops: the skip path must still drop the id. *)
let test_cancelled_table_drains_after_crash () =
  let on_invoke (ctx : (unit, string, string) Sim.Engine.ctx) _ =
    let doomed = ctx.set_timer_after (rat 10 1) "doomed" in
    ctx.cancel_timer doomed
  in
  let faults =
    {
      Sim.Fault.none with
      specs = [ Sim.Fault.crash ~proc:0 ~at:(rat 1 1) ];
    }
  in
  let e =
    Sim.Engine.create ~faults ~model ~offsets:(Array.make 3 Rat.zero)
      ~delay:(Sim.Net.constant (rat 8 1))
      ~handlers:
        {
          on_invoke;
          on_receive = (fun _ ~src:_ () -> ());
          on_timer = (fun _ _ -> ());
        }
      ()
  in
  Sim.Engine.schedule_invoke e ~at:Rat.zero ~proc:0 "go";
  Sim.Engine.run e;
  Alcotest.(check int) "cancelled table drained despite crash" 0
    (Sim.Engine.cancelled_timers e)

(* Cancelling a timer that already fired (here: the firing timer's own
   id, from inside its handler) or an id never issued is a no-op for
   the cancelled-timer table, yet each call is still recorded as a
   Timer_cancel event. *)
let test_cancel_own_firing_timer () =
  let own = ref (-1) in
  let on_invoke (ctx : (unit, string, string) Sim.Engine.ctx) _ =
    own := ctx.set_timer_after Rat.one "self"
  in
  let on_timer (ctx : (unit, string, string) Sim.Engine.ctx) _ =
    ctx.cancel_timer !own;
    ctx.cancel_timer 1_000;
    ctx.respond "done"
  in
  let e =
    Sim.Engine.create ~model ~offsets:(Array.make 3 Rat.zero)
      ~delay:(Sim.Net.constant (rat 8 1))
      ~handlers:{ on_invoke; on_receive = (fun _ ~src:_ () -> ()); on_timer }
      ()
  in
  Sim.Engine.schedule_invoke e ~at:Rat.zero ~proc:0 "go";
  Sim.Engine.run e;
  Alcotest.(check int) "no cancelled entry left" 0
    (Sim.Engine.cancelled_timers e);
  let cancels =
    List.filter
      (function Sim.Trace.Timer_cancel _ -> true | _ -> false)
      (Sim.Trace.events (Sim.Engine.trace e))
  in
  Alcotest.(check int) "both cancels recorded" 2 (List.length cancels);
  Alcotest.(check int) "operation completed" 1
    (Sim.Trace.operation_count (Sim.Engine.trace e))

(* Algorithm 1's Execute handler drains its own entry and cancels the
   timer that is firing; a queue run must still leave the table empty
   (it grew by tens of thousands of entries on a 20k-op run when such
   cancels were inserted). *)
let test_wtlw_queue_run_leaves_no_cancelled_timers () =
  let module Q = Spec.Fifo_queue in
  let module A = Core.Wtlw.Make (Q) in
  let run_model = Sim.Model.make_optimal_eps ~n:4 ~d:(rat 12 1) ~u:(rat 4 1) in
  let cluster =
    A.create ~retain_events:false ~model:run_model ~x:(rat 9 2)
      ~offsets:[| Rat.zero; rat 1 1; rat (-1) 1; rat 1 2 |]
      ~delay:(Sim.Net.random_model ~seed:3 run_model)
      ()
  in
  let e = cluster.engine in
  let rng = Random.State.make [| 3 |] in
  let left = Array.make 4 500 in
  let next ~proc ~at =
    if left.(proc) > 0 then begin
      left.(proc) <- left.(proc) - 1;
      Sim.Engine.schedule_invoke e ~at ~proc (Q.gen_invocation rng)
    end
  in
  Sim.Engine.set_response_callback e (fun ~proc ~inv:_ ~resp:_ ~time ->
      next ~proc ~at:(Rat.add time (rat 1 2)));
  for proc = 0 to 3 do
    next ~proc ~at:Rat.zero
  done;
  Sim.Engine.run e;
  let trace = Sim.Engine.trace e in
  Alcotest.(check int) "every operation completed" 2000
    (Sim.Trace.operation_count trace);
  Alcotest.(check int) "no cancelled entry left" 0
    (Sim.Engine.cancelled_timers e)

let () =
  Alcotest.run "engine"
    [
      ( "engine",
        [
          Alcotest.test_case "ping roundtrip" `Quick test_ping_roundtrip;
          Alcotest.test_case "timer latency" `Quick test_timer_latency;
          Alcotest.test_case "local clocks" `Quick test_local_clock_offsets;
          Alcotest.test_case "skew rejected" `Quick test_skew_rejected;
          Alcotest.test_case "broadcast" `Quick test_broadcast_counts;
          Alcotest.test_case "matrix delays" `Quick test_matrix_delays_respected;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "double invoke rejected" `Quick
            test_double_invoke_rejected;
          Alcotest.test_case "invoke in past rejected" `Quick
            test_invoke_in_past_rejected;
          Alcotest.test_case "closed loop callback" `Quick
            test_response_callback_closed_loop;
          Alcotest.test_case "step limit" `Quick test_step_limit;
          Alcotest.test_case "send/timer validation" `Quick
            test_send_validation;
          Alcotest.test_case "cancelled timer" `Quick
            test_cancelled_timer_does_not_fire;
          Alcotest.test_case "cancelled table drains" `Quick
            test_cancelled_table_drains;
          Alcotest.test_case "cancelled table drains after crash" `Quick
            test_cancelled_table_drains_after_crash;
          Alcotest.test_case "cancel own firing timer" `Quick
            test_cancel_own_firing_timer;
          Alcotest.test_case "wtlw queue run leaves no cancelled timers"
            `Quick test_wtlw_queue_run_leaves_no_cancelled_timers;
        ] );
    ]
