type phase = Thinking | Ready | Finished

type pview = {
  pid : Proc.pid;
  processor : int;
  priority : int;
  phase : phase;
  next_op : Op.t option;
  own_steps : int;
  inv_steps : int;
  inv : int;
  guarantee : int;
  pending : bool;
}

type view = { step : int; runnable : Proc.pid list; procs : pview array }

type t = { name : string; burst_safe : bool; make : unit -> view -> Proc.pid option }

let of_fun ?(burst_safe = false) name choose =
  { name; burst_safe; make = (fun () -> choose) }

let of_factory ?(burst_safe = false) name make = { name; burst_safe; make }
let prepare t = t.make ()

let recording t decisions =
  of_factory (t.name ^ "+rec") (fun () ->
      let choose = prepare t in
      fun view ->
        match choose view with
        | Some pid as r ->
          decisions := pid :: !decisions;
          r
        | None -> None)

let round_robin () =
  of_factory ~burst_safe:true "round-robin" (fun () ->
      let last = ref (-1) in
      fun v ->
        match v.runnable with
        | [] -> None
        (* A singleton choice is forced: return it without advancing the
           cursor, so skipping the consultation entirely (the engine's
           burst batching) is observationally identical. *)
        | [ p ] -> Some p
        | l ->
          let pick =
            match List.find_opt (fun p -> p > !last) l with
            | Some p -> p
            | None -> List.hd l
          in
          last := pick;
          Some pick)

let random ~seed =
  of_factory ~burst_safe:true
    (Printf.sprintf "random(%d)" seed)
    (fun () ->
      let st = Random.State.make [| seed |] in
      (* Scratch pid buffer, grown on demand: one pass over [runnable]
         replaces the List.length + List.nth double traversal while
         keeping the RNG stream identical (one [int] draw per decision,
         same bound). *)
      let buf = ref (Array.make 8 0) in
      (* The engine hands back the physically-same runnable list while
         membership is unchanged (its schedulable-list cache), so memo
         the list->buffer conversion on identity. The lists are rebuilt
         fresh whenever membership changes, so a stale hit is
         impossible; the RNG stream is untouched either way. *)
      let memo_list = ref [] and memo_n = ref 0 in
      fun v ->
        match v.runnable with
        | [] -> None
        (* Forced choice: no RNG draw, so the stream is the same whether
           or not the engine consulted us (burst batching skips the
           call; a draw here would desynchronize later decisions). *)
        | [ p ] -> Some p
        | l ->
          if l != !memo_list then begin
            let n = ref 0 in
            List.iter
              (fun pid ->
                if !n >= Array.length !buf then begin
                  let bigger = Array.make (2 * Array.length !buf) 0 in
                  Array.blit !buf 0 bigger 0 !n;
                  buf := bigger
                end;
                !buf.(!n) <- pid;
                incr n)
              l;
            memo_list := l;
            memo_n := !n
          end;
          Some !buf.(Random.State.int st !memo_n))

let scripted ?fallback script =
  of_factory "scripted" (fun () ->
      let remaining = ref script in
      let fb = Option.map (fun f -> f.make ()) fallback in
      fun v ->
        let rec next () =
          match !remaining with
          | [] -> (match fb with Some f -> f v | None -> None)
          | pid :: rest ->
            if List.mem pid v.runnable then begin
              remaining := rest;
              Some pid
            end
            else begin
              match fb with
              | Some _ ->
                remaining := rest;
                next ()
              | None -> None
            end
        in
        next ())

let first =
  of_fun ~burst_safe:true "first" (fun v ->
      match v.runnable with [] -> None | pid :: _ -> Some pid)

let highest_pid =
  of_fun ~burst_safe:true "highest-pid" (fun v ->
      match List.rev v.runnable with [] -> None | pid :: _ -> Some pid)

let by_priority =
  of_fun ~burst_safe:true "by-priority" (fun v ->
      match v.runnable with
      | [] -> None
      | first :: rest ->
        Some
          (List.fold_left
             (fun best p ->
               if v.procs.(p).priority > v.procs.(best).priority then p else best)
             first rest))

let prefer pids ~fallback =
  (* Stateless given a burst-safe fallback: on a singleton set both the
     pids scan and the fallback return the one candidate unchanged. *)
  of_factory ~burst_safe:fallback.burst_safe "prefer" (fun () ->
      let fb = fallback.make () in
      fun v ->
        match List.find_opt (fun p -> List.mem p v.runnable) pids with
        | Some p -> Some p
        | None -> fb v)

(* Data footprints over the policy view: what the next statement of a
   candidate would touch. Shared by the sleep-set pruning in
   [Hwf_adversary.Explore] and the POS sampler in
   [Hwf_adversary.Randsched] — both need the same independence
   judgement, so it lives here at the view layer. *)

type footprint = {
  fpid : Proc.pid;
  fproc : int;
  fvar : string option;
  fwrite : bool;
  fknown : bool;
  fop : Op.t option;
}

let footprint (view : view) pid =
  let pv = view.procs.(pid) in
  match (pv.phase, pv.next_op) with
  | Ready, Some op ->
    let fvar, fwrite =
      match op with
      | Op.Read v -> (Some v, false)
      | Op.Write v -> (Some v, true)
      | Op.Rmw { var; _ } -> (Some var, true)
      | Op.Local _ -> (None, false)
    in
    { fpid = pid; fproc = pv.processor; fvar; fwrite; fknown = true; fop = Some op }
  | _ ->
    {
      fpid = pid;
      fproc = pv.processor;
      fvar = None;
      fwrite = true;
      fknown = false;
      fop = None;
    }

type relation = footprint -> footprint -> bool

let independent a b =
  a.fknown && b.fknown
  && a.fproc <> b.fproc
  &&
  match (a.fvar, b.fvar) with
  | Some x, Some y -> (not (a.fwrite || b.fwrite)) || not (String.equal x y)
  | None, _ | _, None -> true
