type event =
  | Stmt of { idx : int; pid : Proc.pid; op : Op.t; inv : int; cost : int }
  | Inv_begin of { pid : Proc.pid; inv : int; label : string }
  | Inv_end of { pid : Proc.pid; inv : int; label : string }
  | Note of { pid : Proc.pid; text : string }
  | Set_priority of { pid : Proc.pid; priority : int }
  | Axiom2_gate of { at : int; active : bool }

type stmt_sink = idx:int -> pid:Proc.pid -> op:Op.t -> inv:int -> cost:int -> unit

type sink = { on_stmt : stmt_sink; on_event : event -> unit }

(* Packed encoding: events live in one int array as variable-stride
   records, decoded lazily by the iterators. Each record starts with a
   header int carrying the tag (low 3 bits) and the pid (the rest);
   payloads are ints, with ops and strings interned into side tables
   (structurally distinct ops/labels are few; the same id is reused for
   every repetition). Appending a statement is therefore a handful of
   int stores — no event record, no per-event pointer — which is what
   the engine's burst loop runs against. *)

let tag_stmt = 0
let tag_inv_begin = 1
let tag_inv_end = 2
let tag_note = 3
let tag_set_priority = 4
let tag_gate = 5

let no_stmt ~idx:_ ~pid:_ ~op:_ ~inv:_ ~cost:_ = ()
let no_event (_ : event) = ()

type t = {
  config : Config.t;
  mutable buf : int array;  (* packed events *)
  mutable pos : int;  (* ints used in [buf] *)
  mutable len : int;  (* number of events *)
  ops : Op.t Vec.t;  (* op intern table, id = index *)
  op_ids : (Op.t, int) Hashtbl.t;
  mutable last_op : Op.t option;  (* 1-entry memo in front of [op_ids] *)
  mutable last_op_id : int;
  strs : string Vec.t;  (* label/text intern table *)
  str_ids : (string, int) Hashtbl.t;
  mutable stmts : int;
  mutable time : int;
  own : int array;  (* per-pid statement counts, maintained incrementally *)
  mutable now_reads : int;
  mutable stamp_reads : int;
  (* Observer sink, split per event class so the statement hot path
     passes fields instead of allocating an event record. Always
     callable: when nothing is installed both are no-ops, so the append
     path carries no option match. [observed] gates the (rare) non-Stmt
     appends that would otherwise allocate an event just to discard it. *)
  mutable on_stmt : stmt_sink;
  mutable on_event : event -> unit;
  mutable observed : bool;
}

let create config =
  {
    config;
    buf = [||];
    pos = 0;
    len = 0;
    ops = Vec.create ();
    op_ids = Hashtbl.create 16;
    last_op = None;
    last_op_id = -1;
    strs = Vec.create ();
    str_ids = Hashtbl.create 16;
    stmts = 0;
    time = 0;
    own = Array.make (Config.n config) 0;
    now_reads = 0;
    stamp_reads = 0;
    on_stmt = no_stmt;
    on_event = no_event;
    observed = false;
  }

let clear_sink t =
  t.on_stmt <- no_stmt;
  t.on_event <- no_event;
  t.observed <- false

let reset t =
  (* The packed buffer and the intern tables are kept: ids are internal
     to the encoding (never observable through the API), so letting them
     survive across runs is pure reuse — the point of [trace_buf]. *)
  t.pos <- 0;
  t.len <- 0;
  t.stmts <- 0;
  t.time <- 0;
  Array.fill t.own 0 (Array.length t.own) 0;
  t.now_reads <- 0;
  t.stamp_reads <- 0;
  clear_sink t

let count_now t = t.now_reads <- t.now_reads + 1

let now_reads t = t.now_reads

let count_stamp t = t.stamp_reads <- t.stamp_reads + 1

let stamp_reads t = t.stamp_reads

let config t = t.config

let observer f =
  {
    on_stmt = (fun ~idx ~pid ~op ~inv ~cost -> f (Stmt { idx; pid; op; inv; cost }));
    on_event = f;
  }

let set_sink t (s : sink) =
  t.on_stmt <- s.on_stmt;
  t.on_event <- s.on_event;
  t.observed <- true

let ensure t k =
  let need = t.pos + k in
  if need > Array.length t.buf then begin
    let cap = max 256 (max need (2 * Array.length t.buf)) in
    let buf = Array.make cap 0 in
    Array.blit t.buf 0 buf 0 t.pos;
    t.buf <- buf
  end

let op_id t op =
  match t.last_op with
  | Some o when Op.equal o op -> t.last_op_id
  | _ ->
    let id =
      match Hashtbl.find_opt t.op_ids op with
      | Some id -> id
      | None ->
        let id = Vec.length t.ops in
        Vec.push t.ops op;
        Hashtbl.add t.op_ids op id;
        id
    in
    t.last_op <- Some op;
    t.last_op_id <- id;
    id

let str_id t s =
  match Hashtbl.find_opt t.str_ids s with
  | Some id -> id
  | None ->
    let id = Vec.length t.strs in
    Vec.push t.strs s;
    Hashtbl.add t.str_ids s id;
    id

(* The engine's hot path: append a statement without building the event
   record. [idx] is implicit — always the running statement count. *)
let add_stmt t ~pid ~op ~inv ~cost =
  let idx = t.stmts in
  t.stmts <- idx + 1;
  t.time <- t.time + cost;
  t.own.(pid) <- t.own.(pid) + 1;
  ensure t 5;
  let b = t.buf and p = t.pos in
  b.(p) <- tag_stmt lor (pid lsl 3);
  b.(p + 1) <- idx;
  b.(p + 2) <- op_id t op;
  b.(p + 3) <- inv;
  b.(p + 4) <- cost;
  t.pos <- p + 5;
  t.len <- t.len + 1;
  t.on_stmt ~idx ~pid ~op ~inv ~cost

let add_inv_begin t ~pid ~inv ~label =
  ensure t 3;
  let b = t.buf and p = t.pos in
  b.(p) <- tag_inv_begin lor (pid lsl 3);
  b.(p + 1) <- inv;
  b.(p + 2) <- str_id t label;
  t.pos <- p + 3;
  t.len <- t.len + 1;
  if t.observed then t.on_event (Inv_begin { pid; inv; label })

let add_inv_end t ~pid ~inv ~label =
  ensure t 3;
  let b = t.buf and p = t.pos in
  b.(p) <- tag_inv_end lor (pid lsl 3);
  b.(p + 1) <- inv;
  b.(p + 2) <- str_id t label;
  t.pos <- p + 3;
  t.len <- t.len + 1;
  if t.observed then t.on_event (Inv_end { pid; inv; label })

let add t e =
  match e with
  | Stmt { idx; pid; op; inv; cost } ->
    (* Honor the caller's [idx] (synthetic traces index freely); the
       derived counters advance exactly as before. *)
    t.stmts <- t.stmts + 1;
    t.time <- t.time + cost;
    t.own.(pid) <- t.own.(pid) + 1;
    ensure t 5;
    let b = t.buf and p = t.pos in
    b.(p) <- tag_stmt lor (pid lsl 3);
    b.(p + 1) <- idx;
    b.(p + 2) <- op_id t op;
    b.(p + 3) <- inv;
    b.(p + 4) <- cost;
    t.pos <- p + 5;
    t.len <- t.len + 1;
    t.on_stmt ~idx ~pid ~op ~inv ~cost
  | Inv_begin { pid; inv; label } -> add_inv_begin t ~pid ~inv ~label
  | Inv_end { pid; inv; label } -> add_inv_end t ~pid ~inv ~label
  | Note { pid; text } ->
    ensure t 2;
    let b = t.buf and p = t.pos in
    b.(p) <- tag_note lor (pid lsl 3);
    b.(p + 1) <- str_id t text;
    t.pos <- p + 2;
    t.len <- t.len + 1;
    if t.observed then t.on_event e
  | Set_priority { pid; priority } ->
    ensure t 2;
    let b = t.buf and p = t.pos in
    b.(p) <- tag_set_priority lor (pid lsl 3);
    b.(p + 1) <- priority;
    t.pos <- p + 2;
    t.len <- t.len + 1;
    if t.observed then t.on_event e
  | Axiom2_gate { at; active } ->
    ensure t 3;
    let b = t.buf and p = t.pos in
    b.(p) <- tag_gate;
    b.(p + 1) <- at;
    b.(p + 2) <- (if active then 1 else 0);
    t.pos <- p + 3;
    t.len <- t.len + 1;
    if t.observed then t.on_event e

(* Sequential lazy decode: each record is rebuilt as an [event] only
   when a consumer walks the trace. *)
let iter f t =
  let b = t.buf in
  let p = ref 0 in
  while !p < t.pos do
    let h = b.(!p) in
    let tag = h land 7 and pid = h lsr 3 in
    if tag = tag_stmt then begin
      f
        (Stmt
           {
             idx = b.(!p + 1);
             pid;
             op = Vec.get t.ops b.(!p + 2);
             inv = b.(!p + 3);
             cost = b.(!p + 4);
           });
      p := !p + 5
    end
    else if tag = tag_inv_begin then begin
      f (Inv_begin { pid; inv = b.(!p + 1); label = Vec.get t.strs b.(!p + 2) });
      p := !p + 3
    end
    else if tag = tag_inv_end then begin
      f (Inv_end { pid; inv = b.(!p + 1); label = Vec.get t.strs b.(!p + 2) });
      p := !p + 3
    end
    else if tag = tag_note then begin
      f (Note { pid; text = Vec.get t.strs b.(!p + 1) });
      p := !p + 2
    end
    else if tag = tag_set_priority then begin
      f (Set_priority { pid; priority = b.(!p + 1) });
      p := !p + 2
    end
    else begin
      f (Axiom2_gate { at = b.(!p + 1); active = b.(!p + 2) = 1 });
      p := !p + 3
    end
  done

let fold f acc t =
  let acc = ref acc in
  iter (fun e -> acc := f !acc e) t;
  !acc

let events t =
  let acc = ref [] in
  iter (fun e -> acc := e :: !acc) t;
  List.rev !acc

let length t = t.len

let statements t = t.stmts

let time t = t.time

let own_statements t pid =
  if pid < 0 || pid >= Array.length t.own then invalid_arg "Trace.own_statements";
  t.own.(pid)

let pp_event ppf = function
  | Stmt { idx; pid; op; inv; cost } ->
    Fmt.pf ppf "%4d  %a.%d  %a%s" idx Proc.pp_pid pid inv Op.pp op
      (if cost = 1 then "" else Printf.sprintf " (cost %d)" cost)
  | Inv_begin { pid; inv; label } ->
    Fmt.pf ppf "      %a.%d  BEGIN %s" Proc.pp_pid pid inv label
  | Inv_end { pid; inv; label } ->
    Fmt.pf ppf "      %a.%d  END %s" Proc.pp_pid pid inv label
  | Note { pid; text } -> Fmt.pf ppf "      %a  -- %s" Proc.pp_pid pid text
  | Set_priority { pid; priority } ->
    Fmt.pf ppf "      %a  PRIORITY := %d" Proc.pp_pid pid priority
  | Axiom2_gate { at; active } ->
    Fmt.pf ppf "%4d  AXIOM 2 %s" at (if active then "RESUMED" else "SUSPENDED")

let pp ppf t =
  let first = ref true in
  Fmt.pf ppf "@[<v>";
  iter
    (fun e ->
      if !first then first := false else Fmt.pf ppf "@,";
      pp_event ppf e)
    t;
  Fmt.pf ppf "@]"
