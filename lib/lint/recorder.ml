open Hwf_sim

type window = {
  w_pid : int;
  w_op : Op.t option;
  w_inv : int;
  w_label : string;
  mutable w_accesses : Runtime.access list;
}

type run = {
  policy_name : string;
  outcome : (Engine.result, exn) result;
  events : Trace.event list;
  windows : window list;
}

(* Attribution relies on the engine being synchronous on one domain: a
   Stmt event is appended (the sink fires) immediately before the
   process's continuation resumes, and every store access the process
   performs before its next effect happens before any further event. So
   "accesses after event E, before the next event" is exactly "accesses
   of the statement (or boundary segment) E announced". *)
let record ?(step_limit = 200_000) ~policy_name ~config ~policy programs =
  let events = ref [] in
  let windows = ref [] in
  let current = ref None in
  let close () =
    match !current with
    | None -> ()
    | Some w ->
      w.w_accesses <- List.rev w.w_accesses;
      windows := w :: !windows;
      current := None
  in
  let open_window pid op inv label =
    close ();
    current := Some { w_pid = pid; w_op = op; w_inv = inv; w_label = label; w_accesses = [] }
  in
  let label = Array.make (Config.n config) "" in
  let observer ev =
    events := ev :: !events;
    match ev with
    | Trace.Stmt { pid; op; inv; _ } -> open_window pid (Some op) inv label.(pid)
    | Trace.Inv_begin { pid; inv; label = l } ->
      label.(pid) <- l;
      open_window pid None inv l
    | Trace.Inv_end { pid; _ } ->
      label.(pid) <- "";
      open_window pid None (-1) ""
    | Trace.Note _ | Trace.Set_priority _ | Trace.Axiom2_gate _ -> ()
  in
  let tap access =
    (match !current with
    | None ->
      (* Launch-time prelude, before any event gave us a pid. *)
      open_window (-1) None (-1) ""
    | Some _ -> ());
    match !current with
    | Some w -> w.w_accesses <- access :: w.w_accesses
    | None -> assert false
  in
  let outcome =
    try
      Ok
        (Runtime.with_tap tap (fun () ->
             Engine.run ~step_limit ~sink:(Trace.observer observer) ~config ~policy programs))
    with e -> Error e
  in
  close ();
  { policy_name; outcome; events = List.rev !events; windows = List.rev !windows }

let battery ?(budget = 12) ~fair_only () =
  let budget = max 1 budget in
  let base =
    if fair_only then [ ("round-robin", fun () -> Policy.round_robin ()) ]
    else
      [
        ("round-robin", fun () -> Policy.round_robin ());
        ("first", fun () -> Policy.first);
        ("highest-pid", fun () -> Policy.highest_pid);
        ("by-priority", fun () -> Policy.by_priority);
      ]
  in
  let randoms =
    List.init (max 0 (budget - List.length base)) (fun i ->
        (Printf.sprintf "random-%d" i, fun () -> Policy.random ~seed:(100 + (37 * i))))
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  take budget (base @ randoms)

let record_battery ?budget ?step_limit ~fair_only ~config ~make () =
  List.map
    (fun (policy_name, policy) ->
      record ?step_limit ~policy_name ~config ~policy:(policy ()) (make ()))
    (battery ?budget ~fair_only ())
