type ('msg, 'inv, 'resp) event =
  | Invoke of { time : Rat.t; proc : int; inv : 'inv }
  | Respond of { time : Rat.t; proc : int; inv : 'inv; resp : 'resp }
  | Send of {
      time : Rat.t;
      src : int;
      dst : int;
      seq : int;
      delay : Rat.t;
      msg : 'msg;
    }
  | Deliver of { time : Rat.t; src : int; dst : int; msg : 'msg }
  | Timer_set of { time : Rat.t; proc : int; id : int; expiry : Rat.t }
  | Timer_fire of { time : Rat.t; proc : int; id : int }
  | Timer_cancel of { time : Rat.t; proc : int; id : int }
  | Fault of { time : Rat.t; fault : Fault.kind }

type ('inv, 'resp) operation = {
  proc : int;
  inv : 'inv;
  resp : 'resp;
  inv_time : Rat.t;
  resp_time : Rat.t;
}

type ('msg, 'inv, 'resp) sink = {
  name : string;
  on_event : ('msg, 'inv, 'resp) event -> unit;
}

type violation = {
  at : Rat.t;
  src : int;
  dst : int;
  seq : int;
  delay : Rat.t;
}

type fault_counts = {
  dropped : int;
  duplicated : int;
  spiked : int;
  crashed : int;
  skewed : int;
}

let no_faults =
  { dropped = 0; duplicated = 0; spiked = 0; crashed = 0; skewed = 0 }

let total_faults c = c.dropped + c.duplicated + c.spiked + c.crashed + c.skewed

(* Every built-in view below is maintained incrementally by [record]:
   no accessor re-walks the event list.  The full event list itself is
   just one more sink — the retention sink — and the only one that
   costs O(events) memory; everything else is O(operations) (the
   pairing sink) or O(1) (counters, delay envelope, admissibility).

   Counters-only path: when nothing reads whole events ([observed] is
   false: no retention, no user sink), the engine's per-message and
   per-timer notifications ({!send}, {!deliver}, {!timer_set},
   {!timer_fire}, {!timer_cancel}) update the built-in views directly
   and never build the event record.  [record] routes through the same
   [note_*] updates, so both paths leave identical views. *)
type ('msg, 'inv, 'resp) t = {
  retain : bool;
  (* [retain || extra_sinks <> []]: some consumer needs event records. *)
  mutable observed : bool;
  mutable rev_events : ('msg, 'inv, 'resp) event list;
  mutable count : int;
  mutable sends : int;
  mutable delivers : int;
  (* Operation-pairing sink: invoke/response matching done online.
     The at-most-one-pending-operation constraint (§2.2) makes the
     pairing unambiguous. *)
  pending : (int, Rat.t * 'inv) Hashtbl.t;
  (* Completed operations, latest first.  Each process's completions
     are in its invocation order (one pending operation at a time). *)
  mutable rev_finished : ('inv, 'resp) operation list;
  mutable finished : int;
  mutable malformed : string option;
  mutable op_observers : (('inv, 'resp) operation -> unit) list;
  (* Delay envelope: min/max over all sends, meaningful once
     [sends > 0].  Delay admissibility is an interval test, so the
     envelope answers [delays_admissible] for any model in O(1). *)
  mutable delay_lo : Rat.t;
  mutable delay_hi : Rat.t;
  (* Admissibility monitor: flags the first out-of-bounds delay as it
     is recorded, against the model fixed at attach time. *)
  mutable monitor : Model.t option;
  mutable first_violation : violation option;
  (* Fault counters: one O(1) cell per injected-fault kind. *)
  mutable faults : fault_counts;
  mutable last : Rat.t;
  mutable extra_sinks : ('msg, 'inv, 'resp) sink list;
}

let create ?(retain_events = true) ?monitor () =
  {
    retain = retain_events;
    observed = retain_events;
    rev_events = [];
    count = 0;
    sends = 0;
    delivers = 0;
    pending = Hashtbl.create 16;
    rev_finished = [];
    finished = 0;
    malformed = None;
    op_observers = [];
    delay_lo = Rat.zero;
    delay_hi = Rat.zero;
    monitor;
    first_violation = None;
    faults = no_faults;
    last = Rat.zero;
    extra_sinks = [];
  }

let retains_events t = t.retain

let add_sink t sink =
  t.extra_sinks <- t.extra_sinks @ [ sink ];
  t.observed <- true

let on_operation t f = t.op_observers <- t.op_observers @ [ f ]

let event_time = function
  | Invoke { time; _ }
  | Respond { time; _ }
  | Send { time; _ }
  | Deliver { time; _ }
  | Timer_set { time; _ }
  | Timer_fire { time; _ }
  | Timer_cancel { time; _ }
  | Fault { time; _ } -> time

let[@inline] note_event t time =
  t.count <- t.count + 1;
  t.last <- time

let note_send t ~time ~src ~dst ~seq ~delay =
  if t.sends = 0 then begin
    t.delay_lo <- delay;
    t.delay_hi <- delay
  end
  else begin
    t.delay_lo <- Rat.min t.delay_lo delay;
    t.delay_hi <- Rat.max t.delay_hi delay
  end;
  t.sends <- t.sends + 1;
  match (t.monitor, t.first_violation) with
  | Some model, None when not (Model.delay_valid model delay) ->
      t.first_violation <- Some { at = time; src; dst; seq; delay }
  | _ -> ()

let record t event =
  note_event t (event_time event);
  (match event with
  | Invoke { time; proc; inv } ->
      if t.malformed = None then
        if Hashtbl.mem t.pending proc then
          t.malformed <-
            Some "Trace.operations: overlapping invocations at a process"
        else Hashtbl.replace t.pending proc (time, inv)
  | Respond { time; proc; resp; _ } ->
      if t.malformed = None then (
        match Hashtbl.find_opt t.pending proc with
        | None ->
            t.malformed <-
              Some "Trace.operations: response without invocation"
        | Some (inv_time, inv) ->
            Hashtbl.remove t.pending proc;
            let op = { proc; inv; resp; inv_time; resp_time = time } in
            t.rev_finished <- op :: t.rev_finished;
            t.finished <- t.finished + 1;
            List.iter (fun observe -> observe op) t.op_observers)
  | Send { time; src; dst; seq; delay; _ } ->
      note_send t ~time ~src ~dst ~seq ~delay
  | Deliver _ -> t.delivers <- t.delivers + 1
  | Fault { fault; _ } ->
      let c = t.faults in
      t.faults <-
        (match fault with
        | Fault.Dropped _ -> { c with dropped = c.dropped + 1 }
        | Fault.Duplicated _ -> { c with duplicated = c.duplicated + 1 }
        | Fault.Spiked _ -> { c with spiked = c.spiked + 1 }
        | Fault.Crashed _ -> { c with crashed = c.crashed + 1 }
        | Fault.Skewed _ -> { c with skewed = c.skewed + 1 })
  | Timer_set _ | Timer_fire _ | Timer_cancel _ -> ());
  if t.retain then t.rev_events <- event :: t.rev_events;
  List.iter (fun sink -> sink.on_event event) t.extra_sinks

let send t ~time ~src ~dst ~seq ~delay msg =
  if t.observed then record t (Send { time; src; dst; seq; delay; msg })
  else begin
    note_event t time;
    note_send t ~time ~src ~dst ~seq ~delay
  end

let deliver t ~time ~src ~dst msg =
  if t.observed then record t (Deliver { time; src; dst; msg })
  else begin
    note_event t time;
    t.delivers <- t.delivers + 1
  end

let timer_set t ~time ~proc ~id ~expiry =
  if t.observed then record t (Timer_set { time; proc; id; expiry })
  else note_event t time

let timer_fire t ~time ~proc ~id =
  if t.observed then record t (Timer_fire { time; proc; id })
  else note_event t time

let timer_cancel t ~time ~proc ~id =
  if t.observed then record t (Timer_cancel { time; proc; id })
  else note_event t time

let of_events events =
  let t = create () in
  List.iter (record t) events;
  t

let events t =
  if not t.retain then
    invalid_arg "Trace.events: event retention is disabled";
  List.rev t.rev_events

let last_time t = t.last

let check_well_formed t =
  match t.malformed with None -> () | Some msg -> invalid_arg msg

(* Invocation-time order, ties in completion order: the list a stable
   sort of the completions by [inv_time] gives, built as a merge
   instead.  Each process's completions are already in its invocation
   order, so the list is assembled back to front by repeatedly taking
   the greatest (inv_time, completion index) among the processes'
   last unmerged completions. *)
let operations t =
  check_well_formed t;
  match t.rev_finished with
  | [] -> []
  | last :: _ ->
      let n = t.finished in
      let ops = Array.make n last in
      List.iteri (fun k op -> ops.(n - 1 - k) <- op) t.rev_finished;
      let procs = 1 + Array.fold_left (fun m op -> Stdlib.max m op.proc) 0 ops in
      (* [tail.(p)]: process p's last unmerged completion, or -1;
         [prev.(i)]: the completion before [i] at the same process. *)
      let tail = Array.make procs (-1) and prev = Array.make n (-1) in
      Array.iteri
        (fun i op ->
          prev.(i) <- tail.(op.proc);
          tail.(op.proc) <- i)
        ops;
      let later i j =
        j < 0
        || i >= 0
           &&
           let c = Rat.compare ops.(i).inv_time ops.(j).inv_time in
           c > 0 || (c = 0 && i > j)
      in
      let acc = ref [] in
      for _ = 1 to n do
        let best = ref 0 in
        for p = 1 to procs - 1 do
          if later tail.(p) tail.(!best) then best := p
        done;
        let i = tail.(!best) in
        acc := ops.(i) :: !acc;
        tail.(!best) <- prev.(i)
      done;
      !acc

let pending_invocations t =
  check_well_formed t;
  Hashtbl.fold (fun proc (_, inv) acc -> (proc, inv) :: acc) t.pending []
  |> List.sort (fun (a, _) (b, _) -> Stdlib.compare a b)

let message_delays t =
  List.filter_map
    (function
      | Send { src; dst; delay; _ } -> Some (src, dst, delay)
      | Invoke _ | Respond _ | Deliver _ | Timer_set _ | Timer_fire _
      | Timer_cancel _ | Fault _ -> None)
    (events t)

let delay_bounds t =
  if t.sends = 0 then None else Some (t.delay_lo, t.delay_hi)

(* The envelope suffices: all delays lie in [d - u, d] iff the extreme
   ones do. *)
let delays_admissible model t =
  t.sends = 0
  || Model.delay_valid model t.delay_lo
     && Model.delay_valid model t.delay_hi

let monitor_admissibility t model =
  t.monitor <- Some model;
  (* Catch up on already-recorded sends when they were retained, so the
     monitor is exact regardless of attach order. *)
  if t.first_violation = None && t.retain then
    List.iter
      (function
        | Send { time; src; dst; seq; delay; _ }
          when t.first_violation = None
               && not (Model.delay_valid model delay) ->
            t.first_violation <- Some { at = time; src; dst; seq; delay }
        | _ -> ())
      (List.rev t.rev_events)

let first_inadmissible t = t.first_violation

let event_count t = t.count
let send_count t = t.sends
let deliver_count t = t.delivers
let fault_counts t = t.faults

let operation_count t =
  check_well_formed t;
  t.finished

let pending_count t =
  check_well_formed t;
  Hashtbl.length t.pending

let pp_summary ppf t =
  Format.fprintf ppf "trace: %d events, %d operations, %d messages, last=%a"
    t.count (operation_count t) t.sends Rat.pp t.last
