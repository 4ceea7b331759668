open Hwf_sim
module Resil = Hwf_resil.Resil
module Checkpoint = Hwf_resil.Checkpoint

type instance = {
  programs : (unit -> unit) array;
  check : Engine.result -> (unit, string) result;
}

type scenario = { name : string; config : Config.t; make : unit -> instance }

type counterexample = {
  message : string;
  trace : Trace.t;
  decisions : Proc.pid list;
}

type outcome = {
  runs : int;
  exhaustive : bool;
  counterexample : counterexample option;
  coverage : Resil.coverage;
}

(* ---- sleep-set pruning (dynamic partial-order reduction) ----

   Two scheduler transitions are {e independent} when executing them in
   either order yields the same engine state. In this engine all
   scheduler accounting — preemption stamps, ready-level counts, quantum
   guards — is per {e processor}, so transitions of processes on the
   same processor never commute (each statement advances the preemption
   accounting of every other process on that processor). Transitions on
   {e different} processors commute exactly when their data footprints
   do not conflict: same shared variable with at least one write. That
   relation is computed per decision point from the policy view
   ([next_op] of each candidate); anything unknown — a process not yet
   [Ready], a missing [next_op] — is conservatively dependent.

   The relation is only valid while programs never observe global state
   outside their [Shared] footprints. The one such door in this codebase
   is [Eff.now] (the global statement clock, counted per run by
   [Trace.now_reads]): a run that read the clock taints the search —
   see [explore] below for how taint is handled. *)

(* Footprint of one candidate at one decision point. The footprint
   record and the independence judgement live in [Policy] (the view
   layer) since the POS sampler in [Randsched] needs the same notions. *)
type cand = Policy.footprint

(* Sleep sets are pid bitmasks in an [int]; pruning is disabled for
   configurations wider than this (none exist in practice). *)
let max_sleep_pids = 62

let footprint = Policy.footprint

(* The independence relation the pruning runs on. The baseline is
   [Policy.independent]; [Hwf_lint.Indep] derives stronger (still
   sound) relations from static analysis and feeds them in through
   [explore ?relation]. The name is part of the campaign identity: a
   stronger relation changes run counts, so a checkpoint journal
   written under one relation cannot seed a resume under another. *)
type relation = { rname : string; rel : Policy.relation }

let base_relation = { rname = "base"; rel = Policy.independent }

let slept mask pid = mask land (1 lsl pid) <> 0

(* First candidate not in the sleep set, or [-1] when every candidate
   is slept. A fully-slept decision point means every enabled
   transition here is covered by a DFS-earlier sibling subtree — the
   source-set refinement discards the whole prefix instead of
   re-exploring a covered schedule (the pre-source-set fallback was
   "take 0: redundant but sound"). *)
let first_awake cands mask =
  let n = Array.length cands in
  let rec go j =
    if j >= n then -1 else if slept mask cands.(j).Policy.fpid then go (j + 1) else j
  in
  go 0

let no_cands : cand array = [||]

(* One decision point of a completed run: the index chosen among
   [candidates] alternatives, the pid it mapped to, and — when pruning —
   the candidates' footprints plus the sleep set this node was entered
   with (both recomputed from the prefix on every replay, so they are
   pure functions of the prefix and identical across jobs/grain). *)
type slot = {
  choice : int;
  candidates : int;
  pid : Proc.pid;
  cands : cand array;  (* [no_cands] when pruning is off *)
  sleep : int;  (* entry sleep set (pid bitmask); 0 when pruning is off *)
}

(* Search-layer counters (observability; see docs/OBSERVABILITY.md).
   Atomics because subtree DFSs run on pool domains. Off by default:
   without a [stats] argument nothing is allocated or touched. The
   per-root run counts are schedule-deterministic when the search
   completes; the pool counters depend on domain racing and are
   display-only. *)
type stats = {
  subtree_runs : int Atomic.t array;  (* indexed by top-level choice *)
  pruned : int Atomic.t;  (* sibling branches skipped as slept *)
  source_prunes : int Atomic.t;  (* fully-slept prefixes discarded *)
  sampled : int Atomic.t;  (* engine runs performed by [sample] *)
  pool : Hwf_par.Pool.stats;
}

let make_stats ?jobs scenario =
  let jobs =
    match jobs with Some j -> max 1 j | None -> Hwf_par.Pool.default_jobs ()
  in
  {
    subtree_runs = Array.init (max 1 (Config.n scenario.config)) (fun _ -> Atomic.make 0);
    pruned = Atomic.make 0;
    source_prunes = Atomic.make 0;
    sampled = Atomic.make 0;
    pool = Hwf_par.Pool.make_stats ~jobs;
  }

let stats_subtree_runs s = Array.map Atomic.get s.subtree_runs
let stats_pruned s = Atomic.get s.pruned
let stats_source_prunes s = Atomic.get s.source_prunes
let stats_sampled s = Atomic.get s.sampled
let stats_pool s = s.pool

let record_sampled stats =
  match stats with
  | None -> ()
  | Some s -> ignore (Atomic.fetch_and_add s.sampled 1)

let record_run stats slots =
  match stats with
  | None -> ()
  | Some s ->
    if Vec.length slots > 0 then begin
      let c = (Vec.get slots 0).choice in
      if c < Array.length s.subtree_runs then
        ignore (Atomic.fetch_and_add s.subtree_runs.(c) 1)
    end

let record_pruned stats k =
  match stats with
  | None -> ()
  | Some s -> if k > 0 then ignore (Atomic.fetch_and_add s.pruned k)

let record_source_prune stats =
  match stats with
  | None -> ()
  | Some s -> ignore (Atomic.fetch_and_add s.source_prunes 1)

let pool_of stats = Option.map (fun s -> s.pool) stats

let verdict ~on_step_limit instance (result : Engine.result) =
  match Wellformed.check result.trace with
  | v :: _ ->
    Error (Fmt.str "engine produced ill-formed trace: %a" Wellformed.pp_violation v)
  | [] -> (
    match (result.stop, on_step_limit) with
    | Engine.Step_limit, `Fail -> Error "step limit hit (possible non-termination)"
    | Engine.Decision_limit, `Fail ->
      Error "decision limit hit (statement-free spin; possible non-termination)"
    | (Engine.Step_limit | Engine.Decision_limit | Engine.All_finished
      | Engine.Policy_stopped | Engine.All_halted), _ ->
      instance.check result)

(* ---- per-worker scratch arenas ----

   A worker performs thousands of engine runs; the trace event buffer
   and the decision stack dominate its allocation. Each pool worker
   keeps one arena (created on its own domain via [Pool.map_scratch])
   and reuses both buffers across runs. The trace must be severed from
   the arena whenever it escapes into a result that outlives the run —
   a counterexample. *)
type arena = { mutable atrace : Trace.t option; aslots : slot Vec.t }

let make_arena () = { atrace = None; aslots = Vec.create () }

let arena_trace arena config =
  match arena.atrace with
  | Some t -> t
  | None ->
    let t = Trace.create config in
    arena.atrace <- Some t;
    t

let sever arena = arena.atrace <- None

(* Run one schedule: follow [prefix] (indices into the candidate lists),
   then always take the first non-slept index (index 0 when pruning is
   off). Records the decision slots taken; with [dpor] also recomputes
   the sleep sets along the path — a pure function of the prefix, which
   is what keeps checkpoint/resume and the parallel fan-out oblivious
   to pruning. Returns [(result, slots, truncated, tainted, blocked)];
   [tainted] is true when the program read the global statement clock
   ([Eff.now]), which invalidates the independence relation; [blocked]
   is true when the run was cut off at a fully-slept decision point
   (every enabled transition covered by an earlier sibling subtree), in
   which case the prefix must be discarded without a verdict check. *)
let run_one ~dpor ~relation ~preemption_bound ~max_depth ~step_limit ~config ?arena
    instance prefix =
  let slots =
    match arena with
    | Some a ->
      Vec.clear a.aslots;
      a.aslots
    | None -> Vec.create ()
  in
  let depth = ref 0 in
  let prev = ref (-1) in
  let budget = ref (match preemption_bound with None -> max_int | Some b -> b) in
  let truncated = ref false in
  let blocked = ref false in
  let sleep = ref 0 in
  let independent = relation.rel in
  let choose (view : Policy.view) =
    let r = view.runnable in
    let preferred = if List.mem !prev r then Some !prev else None in
    let candidates =
      match preferred with
      | Some p when !budget = 0 -> [ p ]
      | Some p -> p :: List.filter (fun q -> q <> p) r
      | None -> r
    in
    let cands =
      if dpor then Array.of_list (List.map (footprint view) candidates)
      else no_cands
    in
    let d = !depth in
    incr depth;
    let idx =
      if d < Array.length prefix then prefix.(d)
      else begin
        if d >= max_depth then truncated := true;
        if dpor && !sleep <> 0 then first_awake cands !sleep else 0
      end
    in
    if idx < 0 then begin
      (* Fully-slept decision point: every enabled transition is covered
         by a DFS-earlier sibling. Stop the run (Policy_stopped) — the
         caller discards the prefix without a verdict check. *)
      blocked := true;
      None
    end
    else begin
      let idx = if idx < List.length candidates then idx else 0 in
      let pick = List.nth candidates idx in
      let n = if d >= max_depth then 1 else List.length candidates in
      Vec.push slots { choice = idx; candidates = n; pid = pick; cands; sleep = !sleep };
      if dpor then begin
        (* Child sleep set: of the processes slept here or explored as
           earlier siblings, those independent of the taken transition
           still have their (unchanged) transition covered elsewhere. *)
        let taken = cands.(idx) in
        let z = ref 0 in
        Array.iteri
          (fun j c ->
            if (j < idx || slept !sleep c.Policy.fpid) && independent c taken then
              z := !z lor (1 lsl c.Policy.fpid))
          cands;
        sleep := !z
      end;
      (match preferred with
      | Some p when pick <> p -> decr budget
      | Some _ | None -> ());
      prev := pick;
      Some pick
    end
  in
  let policy = Policy.of_fun "explore" choose in
  let trace_buf = Option.map (fun a -> arena_trace a config) arena in
  let result = Engine.run ~step_limit ?trace_buf ~config ~policy instance.programs in
  (result, slots, !truncated, Trace.now_reads result.trace > 0, !blocked)

(* Deepest slot with an unexplored, non-slept sibling. With [dpor],
   siblings in the slot's entry sleep set are skipped — their subtrees
   are covered by the sibling that put them to sleep — and each skip is
   counted through [stats] (a state is abandoned exactly once, so no
   skip is double-counted). *)
let backtrack ~dpor ?stats slots =
  let n = Vec.length slots in
  let next_choice (s : slot) =
    if not dpor then
      if s.choice + 1 < s.candidates then Some (s.choice + 1) else None
    else begin
      let skipped = ref 0 in
      let rec go j =
        if j >= s.candidates then begin
          record_pruned stats !skipped;
          None
        end
        else if slept s.sleep s.cands.(j).Policy.fpid then begin
          incr skipped;
          go (j + 1)
        end
        else begin
          record_pruned stats !skipped;
          Some j
        end
      in
      go (s.choice + 1)
    end
  in
  let rec find i =
    if i < 0 then None
    else
      let s = Vec.get slots i in
      match next_choice s with Some c -> Some (i, c) | None -> find (i - 1)
  in
  match find (n - 1) with
  | None -> None
  | Some (i, c) ->
    let prefix = Array.make (i + 1) 0 in
    for j = 0 to i - 1 do
      prefix.(j) <- (Vec.get slots j).choice
    done;
    prefix.(i) <- c;
    Some prefix

(* ---- subtree cells (see docs/PARALLELISM.md, docs/ROBUSTNESS.md) ----

   [explore] always splits the decision tree at depth 0, even at
   [jobs = 1]: each top-level candidate index roots an independent
   subtree — one cell of the domain pool, of the per-cell deadline and
   of the checkpoint journal — and the sequential DFS runs unchanged
   inside each one (backtracking is forbidden from crossing slot 0).
   Because the sequential DFS visits subtree 0 in full, then subtree 1,
   ... — [backtrack] increments slot 0 only when no deeper slot has
   unexplored siblings — concatenating the per-subtree results in index
   order reproduces the sequential run order exactly, at every [jobs]
   and [grain], whenever the search completes within [max_runs]. Sleep
   sets do not disturb this: they are recomputed from the prefix alone,
   so subtree [i]'s pruning is identical whether it runs on the
   caller's domain after subtree [i-1], on a stolen chunk of a pool
   worker, or after a resume. *)

let tainted_msg =
  "Explore.explore: the program read the global statement clock (Eff.now) on \
   some schedules only, which invalidates sleep-set pruning; re-run with \
   ~dpor:false (--no-dpor)"

(* Outcome of one subtree's DFS. [sruns] counts runs actually performed
   in the subtree; on a counterexample the DFS stops, so [sruns] is also
   the canonical "runs until failure" of that subtree. *)
type subtree = { sruns : int; sexhaustive : bool; scx : counterexample option }

(* DFS from [start], restricted to the top-level branch [root] (when
   given): a prefix whose slot 0 differs means the subtree is
   exhausted. [claim] is the global max_runs budget — one claim per run,
   so the total number of engine runs across all domains never exceeds
   [max_runs]. [aborted] lets a worker retire once a lower-indexed
   subtree (earlier in canonical order) has found a counterexample, or
   the search is stopped. A run that reads the global clock under
   pruning sets [taint] and retires the subtree: the relation is invalid
   for the whole search, which [explore] then refuses. *)
let subtree_dfs ~dpor ~relation ~claim ~aborted ~taint ~stats ~preemption_bound
    ~max_depth ~step_limit ~on_step_limit ~root ~arena scenario start =
  let runs = ref 0 in
  let exhaustive = ref true in
  let in_subtree prefix =
    match root with
    | None -> true
    | Some i -> Array.length prefix > 0 && prefix.(0) = i
  in
  let rec loop prefix =
    if aborted () || not (claim ()) then
      { sruns = !runs; sexhaustive = false; scx = None }
    else begin
      let instance = scenario.make () in
      let result, slots, truncated, tainted, blocked =
        run_one ~dpor ~relation ~preemption_bound ~max_depth ~step_limit
          ~config:scenario.config ~arena instance prefix
      in
      if truncated then exhaustive := false;
      if tainted && dpor then begin
        Atomic.set taint true;
        { sruns = !runs; sexhaustive = false; scx = None }
      end
      else if blocked then begin
        (* Source-set prune: the prefix ran into a fully-slept decision
           point, so every completion of it is Mazurkiewicz-equivalent
           to a schedule in a DFS-earlier subtree. Discard it without a
           verdict check (the run is incomplete by construction) and
           keep backtracking from the decisions gathered so far. *)
        record_source_prune stats;
        next slots
      end
      else begin
        incr runs;
        record_run stats slots;
        match verdict ~on_step_limit instance result with
        | Error message ->
          let decisions = List.map (fun s -> s.pid) (Vec.to_list slots) in
          sever arena;
          {
            sruns = !runs;
            sexhaustive = false;
            scx = Some { message; trace = result.trace; decisions };
          }
        | Ok () -> next slots
      end
    end
  and next slots = continue_from (backtrack ~dpor ?stats slots)
  and continue_from = function
    | Some prefix when in_subtree prefix -> loop prefix
    | Some _ | None -> { sruns = !runs; sexhaustive = !exhaustive; scx = None }
  in
  continue_from start

let rec atomic_min a v =
  let cur = Atomic.get a in
  if v < cur && not (Atomic.compare_and_set a cur v) then atomic_min a v

(* Pruning is requested by default but only armed when the relation is
   valid: never under a preemption bound (the candidate lists are then
   restricted, breaking the "explored or slept" invariant) and never for
   configurations too wide for the bitmask. The probe run decides the
   rest: a probe that read the global clock ([Eff.now] — every
   history-recording scenario does, on every run) disarms pruning for
   the whole search. A clock read appearing only on a {e later} schedule
   is an error ([tainted_msg]); it cannot hide behind pruning, because a
   pruned schedule executes the same per-process statement sequences as
   the explored schedule that covers it. *)
let dpor_requested ~dpor ~preemption_bound scenario =
  dpor && preemption_bound = None && Config.n scenario.config <= max_sleep_pids

(* [msg] is last: counterexample messages may contain any character
   (the journal layer JSON-escapes; this layer only needs an
   unambiguous last field). *)
let payload_of_subtree st =
  match st.scx with
  | None ->
    Printf.sprintf "runs=%d;exh=%d;cx=none" st.sruns (if st.sexhaustive then 1 else 0)
  | Some c ->
    Printf.sprintf "runs=%d;exh=0;cx=%s;msg=%s" st.sruns
      (Checkpoint.pids_to_string c.decisions)
      c.message

(* A restored counterexample's trace is reconstructed by replaying its
   decision sequence (scripted policy, deterministic fallback) — the
   same mechanism Schedule.replay uses. *)
let replay_decisions ~step_limit scenario decisions message =
  let instance = scenario.make () in
  let policy = Policy.scripted ~fallback:Policy.first decisions in
  let result = Engine.run ~step_limit ~config:scenario.config ~policy instance.programs in
  { message; trace = result.trace; decisions }

let subtree_of_payload ~step_limit scenario payload =
  let ( let* ) = Option.bind in
  let* counts, cx = Checkpoint.cut ~sep:";cx=" payload in
  let* sruns, sexh =
    match String.split_on_char ';' counts with
    | [ r; e ] ->
      let* r = Checkpoint.int_field ~key:"runs" r in
      let* e = Checkpoint.int_field ~key:"exh" e in
      Some (r, e = 1)
    | _ -> None
  in
  if cx = "none" then Some { sruns; sexhaustive = sexh; scx = None }
  else
    let* sched, message = Checkpoint.cut ~sep:";msg=" cx in
    let* decisions = Checkpoint.pids_of_string sched in
    Some
      {
        sruns;
        sexhaustive = false;
        scx = Some (replay_decisions ~step_limit scenario decisions message);
      }

(* [dpor] is the {e armed} value (after the probe's taint decision): it
   changes run counts, so it is part of the campaign identity — a
   journal written with pruning cannot seed a resume without it. *)
let campaign_id ~dpor ~relation ~preemption_bound ~max_runs ~max_depth ~step_limit
    ~on_step_limit scenario =
  let params =
    Printf.sprintf "%s|pb=%s|runs=%d|depth=%d|steps=%d|osl=%s|dpor=%b|rel=%s"
      scenario.name
      (match preemption_bound with None -> "-" | Some b -> string_of_int b)
      max_runs max_depth step_limit
      (match on_step_limit with `Fail -> "fail" | `Ignore -> "ignore")
      dpor relation.rname
  in
  Printf.sprintf "explore/%s/%s" scenario.name (Digest.to_hex (Digest.string params))

(* Journaled subtrees, by index; empty without a journal. *)
let open_journal ~step_limit ~campaign ~width ~resume scenario = function
  | None -> (None, Hashtbl.create 1)
  | Some path -> (
    match Checkpoint.open_ ~path ~campaign ~cells:width ~resume with
    | Error msg -> invalid_arg ("Explore.explore: " ^ msg)
    | Ok (journal, entries) ->
      let restored = Hashtbl.create 8 in
      List.iter
        (fun (e : Checkpoint.entry) ->
          if e.idx >= 0 && e.idx < width then
            match subtree_of_payload ~step_limit scenario e.payload with
            | Some st -> Hashtbl.replace restored e.idx st
            | None -> ())
        entries;
      (Some journal, restored))

let explore ?preemption_bound ?(max_runs = 200_000) ?(max_depth = 10_000)
    ?(step_limit = 100_000) ?(on_step_limit = `Fail) ?(jobs = 1) ?grain
    ?(dpor = true) ?(relation = base_relation) ?stats ?cell_wall_s ?checkpoint
    ?(resume = false) ?(should_stop = fun () -> false) scenario =
  (* Probe: the canonical first (all-zeros) schedule — sleep sets are
     empty along the all-defaults path, so this is the same schedule
     with pruning armed or not. It reveals the top-level width and
     whether the scenario reads the global clock, and it is subtree 0's
     first run unless the journal restores subtree 0. *)
  let dpor_req = dpor_requested ~dpor ~preemption_bound scenario in
  let arena0 = make_arena () in
  let probe_inst = scenario.make () in
  let probe, probe_slots, probe_truncated, probe_tainted, _ =
    run_one ~dpor:dpor_req ~relation ~preemption_bound ~max_depth ~step_limit
      ~config:scenario.config ~arena:arena0 probe_inst [||]
  in
  let dpor = dpor_req && not probe_tainted in
  let width =
    if Vec.length probe_slots = 0 then 1 else max 1 (Vec.get probe_slots 0).candidates
  in
  let campaign =
    campaign_id ~dpor ~relation ~preemption_bound ~max_runs ~max_depth ~step_limit
      ~on_step_limit scenario
  in
  let journal, restored =
    open_journal ~step_limit ~campaign ~width ~resume scenario checkpoint
  in
  (* Seed the global budget with the journaled work, so a resumed
     search claims only the remaining runs. *)
  let already = Hashtbl.fold (fun _ st acc -> acc + st.sruns) restored 0 in
  let claimed = Atomic.make already in
  let claim () =
    Atomic.get claimed < max_runs && Atomic.fetch_and_add claimed 1 < max_runs
  in
  (* The probe as subtree 0's first run, judged here, before the fan-out
     reuses its arena: [Error] is a counterexample, [Ok] the prefix the
     DFS continues from. *)
  let head =
    if Hashtbl.mem restored 0 || not (claim ()) then None
    else begin
      record_run stats probe_slots;
      match verdict ~on_step_limit probe_inst probe with
      | Error message ->
        let decisions = List.map (fun s -> s.pid) (Vec.to_list probe_slots) in
        sever arena0;
        Some (Error { message; trace = probe.trace; decisions })
      | Ok () -> Some (Ok (backtrack ~dpor ?stats probe_slots))
    end
  in
  (* Lowest subtree index with a counterexample so far: workers on
     canonically-later subtrees retire early (their results are
     discarded by the merge anyway, exactly as the sequential DFS never
     reaches them). *)
  let best = Atomic.make (match head with Some (Error _) -> 0 | _ -> max_int) in
  let taint = Atomic.make false in
  let stopped () = should_stop () || Resil.interrupted () in
  (* One subtree as a cell outcome: [Skipped] when the stop request cut
     its DFS short (a cut DFS has found no counterexample, so it has no
     result of its own), [Ok_cell] otherwise. *)
  let eval arena i deadline =
    let cut = ref false in
    let aborted () =
      Atomic.get best < i || Atomic.get taint
      || (stopped () && (cut := true; true))
      (* Watchdog demotion: an expired deadline retires the subtree
         with a partial, non-exhaustive result instead of hanging. *)
      || Resil.expired deadline
    in
    let root = if width <= 1 then None else Some i in
    let dfs =
      subtree_dfs ~dpor ~relation ~claim ~aborted ~taint ~stats ~preemption_bound
        ~max_depth ~step_limit ~on_step_limit ~root ~arena scenario
    in
    let st =
      match (i, head) with
      | 0, Some (Error cx) -> { sruns = 1; sexhaustive = false; scx = Some cx }
      | 0, Some (Ok next) ->
        let st = dfs next in
        { st with sruns = st.sruns + 1; sexhaustive = st.sexhaustive && not probe_truncated }
      | _ -> dfs (Some (if width <= 1 then [||] else [| i |]))
    in
    (match st.scx with Some _ -> atomic_min best i | None -> ());
    (* Journal only untainted, uncut cells: a cell cut short by an
       interrupt or stop request must re-run on resume, not restore
       partial. *)
    if !cut then Resil.Skipped "interrupted"
    else begin
      if not (Atomic.get taint) then
        Option.iter
          (fun j ->
            Checkpoint.record j ~idx:i
              ~key:(Printf.sprintf "subtree-%d" i)
              ~payload:(payload_of_subtree st))
          journal;
      Resil.Ok_cell st
    end
  in
  (* The calling domain's worker reuses the probe's arena. *)
  let caller = Domain.self () in
  let make () = if Domain.self () = caller then arena0 else make_arena () in
  let cells =
    Hwf_par.Pool.map_scratch ~jobs ?grain ?stats:(pool_of stats) ~make
      (fun arena i ->
        match Hashtbl.find_opt restored i with
        | Some st -> { Resil.outcome = Resil.Ok_cell st; attempts = 1 }
        | None when stopped () -> { Resil.outcome = Resil.Skipped "interrupted"; attempts = 0 }
        | None ->
          let deadline =
            match cell_wall_s with
            | None -> Resil.no_deadline
            | Some s -> Resil.deadline ~wall_s:s ()
          in
          let outcome =
            match journal with
            (* Nothing to resume an errored cell from: an exception
               propagates to the caller (the pool re-raises the
               lowest-index one). *)
            | None -> eval arena i deadline
            (* Journaled: contain it as an errored cell, so the
               completed subtrees stay journaled and resumable. *)
            | Some _ -> (
              try eval arena i deadline
              with e -> Resil.Errored (Resil.classify e, Printexc.to_string e))
          in
          { Resil.outcome; attempts = 1 })
      (Array.init width Fun.id)
  in
  Option.iter Checkpoint.close journal;
  if Atomic.get taint then invalid_arg tainted_msg;
  (* Canonical merge, stopping at the first cell without a result: a
     counterexample found after a gap cannot be called canonical, so
     the gap truncates the merge and coverage reports the rest. *)
  let total = ref 0 and exhaustive = ref true and cx = ref None in
  (try
     Array.iter
       (fun cell ->
         match cell.Resil.outcome with
         | Resil.Ok_cell st -> (
           total := !total + st.sruns;
           if not st.sexhaustive then exhaustive := false;
           match st.scx with
           | Some c ->
             cx := Some c;
             raise Exit
           | None -> ())
         | Resil.Timed_out _ | Resil.Errored _ | Resil.Skipped _ ->
           exhaustive := false;
           raise Exit)
       cells
   with Exit -> ());
  {
    runs = !total;
    exhaustive = !exhaustive && !cx = None;
    counterexample = !cx;
    coverage = Resil.coverage_of_cells cells;
  }

let iter_schedules ?preemption_bound ?(max_runs = 200_000) ?(max_depth = 10_000)
    ?(step_limit = 100_000) scenario ~f =
  (* Deliberately unpruned: callers (Bivalence) reason about the full
     schedule enumeration, not a reduced one. *)
  let runs = ref 0 in
  let rec loop prefix =
    if !runs < max_runs then begin
      incr runs;
      let instance = scenario.make () in
      let result, slots, _truncated, _tainted, _blocked =
        run_one ~dpor:false ~relation:base_relation ~preemption_bound ~max_depth
          ~step_limit ~config:scenario.config instance prefix
      in
      let pids = List.map (fun s -> s.pid) (Vec.to_list slots) in
      match f ~pids result with
      | `Stop -> ()
      | `Continue -> (
        match backtrack ~dpor:false slots with
        | None -> ()
        | Some prefix -> loop prefix)
    end
  in
  loop [||];
  !runs

(* Per-run seed derivation for sampling campaigns, exposed for the
   regression test that adjacent campaign seeds stay disjoint. *)
let run_seed = Randsched.mix

let sample ?(runs = 1_000) ?(step_limit = 100_000) ?(on_step_limit = `Fail)
    ?(jobs = 1) ?grain ?stats ?runner ~strategy ~seed scenario =
  (* Run [i] is fully determined by [run_seed seed i] (a splitmix-style
     hash — the earlier [seed + i] scheme made adjacent campaign seeds
     share all but one of their runs), so the cells are independent and
     the merge is by index: the reported counterexample is the
     lowest-index failure at every [jobs]. *)
  let profile, horizon =
    (* SURW weights candidates by estimated remaining statements and PCT
       draws change points over a schedule-length horizon; both
       estimates come from one deterministic pilot run, computed before
       the fan-out so run [i] stays a pure function of [run_seed seed i]
       and cells remain independent across [jobs]. *)
    match strategy with
    | Randsched.Naive | Randsched.Pos -> (None, None)
    | Randsched.Pct _ | Randsched.Surw ->
      let instance = scenario.make () in
      let result =
        Engine.run ~step_limit ~config:scenario.config
          ~policy:(Policy.round_robin ()) instance.programs
      in
      let total = Array.fold_left ( + ) 0 result.own_steps in
      (Some result.own_steps, Some (max 16 total))
  in
  let one arena i =
    let instance = scenario.make () in
    (* Recording the decisions makes a sampled counterexample a
       replayable schedule for the ordinary [Schedule]/[Shrink]
       pipeline. *)
    let decisions = ref [] in
    let policy =
      Policy.recording
        (Randsched.policy ?horizon ?profile strategy ~seed:(run_seed seed i))
        decisions
    in
    let result =
      match runner with
      | None ->
        let trace_buf = arena_trace arena scenario.config in
        Engine.run ~step_limit ~trace_buf ~config:scenario.config ~policy
          instance.programs
      | Some f -> f ~step_limit ~policy instance
    in
    record_sampled stats;
    match verdict ~on_step_limit instance result with
    | Error message ->
      sever arena;
      Some { message; trace = result.trace; decisions = List.rev !decisions }
    | Ok () -> None
  in
  (* A pool cell is a block of [grain] consecutive runs, run in index
     order until its first failure — at [jobs = 1] the whole campaign is
     one block, run inline. Runs canonically after a known failure are
     skipped; runs before it still run, so the minimum failing index is
     exact. *)
  let grain =
    match grain with
    | Some g when g < 1 -> invalid_arg "Explore.sample: grain must be >= 1"
    | Some g -> g
    | None -> Hwf_par.Pool.auto_grain ~n:runs ~jobs
  in
  let best = Atomic.make max_int in
  let block arena b =
    let hi = min runs ((b + 1) * grain) in
    let rec go i =
      if i >= hi || Atomic.get best < i then None
      else
        match one arena i with
        | Some cx ->
          atomic_min best i;
          Some (i, cx)
        | None -> go (i + 1)
    in
    go (b * grain)
  in
  let blocks = if runs <= 0 then 0 else ((runs - 1) / grain) + 1 in
  let results =
    Hwf_par.Pool.map_scratch ~jobs ~grain:1 ?stats:(pool_of stats) ~make:make_arena block
      (Array.init blocks Fun.id)
  in
  let coverage = Resil.full_coverage 1 in
  match Array.find_map Fun.id results with
  | Some (i, cx) -> { runs = i + 1; exhaustive = false; counterexample = Some cx; coverage }
  | None -> { runs = max 0 runs; exhaustive = false; counterexample = None; coverage }

(* Exact (Clopper–Pearson-style) confidence interval on
   schedules-to-first-bug from a geometric observation: the first bug at
   run [k] inverts P(X <= k) resp. P(X >= k) at alpha/2; no bug in [n]
   runs gives the one-sided "rule of three" bound. *)
let stf_ci ?(level = 0.95) (o : outcome) =
  let alpha = 1.0 -. level in
  match o.counterexample with
  | Some _ ->
    let k = float_of_int (max 1 o.runs) in
    let p_lo = 1.0 -. ((1.0 -. (alpha /. 2.0)) ** (1.0 /. k)) in
    let p_hi =
      if o.runs <= 1 then 1.0 else 1.0 -. ((alpha /. 2.0) ** (1.0 /. (k -. 1.0)))
    in
    (1.0 /. p_hi, 1.0 /. p_lo)
  | None ->
    if o.runs <= 0 then (0.0, infinity)
    else
      let n = float_of_int o.runs in
      let p_hi = 1.0 -. (alpha ** (1.0 /. n)) in
      (1.0 /. p_hi, infinity)

let pp_outcome ppf o =
  (match o.counterexample with
  | None ->
    Fmt.pf ppf "OK after %d runs%s" o.runs
      (if o.exhaustive then " (exhaustive)" else "")
  | Some c -> Fmt.pf ppf "FAIL after %d runs: %s" o.runs c.message);
  (* Printed only when incomplete: clean-run output is unchanged, and a
     partial result cannot be mistaken for a complete one. *)
  if not (Resil.complete o.coverage) then
    Fmt.pf ppf " [INCOMPLETE coverage: %a]" Resil.pp_coverage o.coverage
