open Hwf_sim

(* See the .mli: this construction is DELIBERATELY KEPT BROKEN as the
   ablation justifying the consensus-chain design (DESIGN.md,
   Substitution 2). Do not use it as a synchronization primitive. *)

type 'a t = {
  x : 'a Shared.t;  (* the value *)
  l : int Shared.t;  (* announce: last process to start an operation *)
}

let make name init =
  let name = Shared.Name.v name in
  {
    x = Shared.named (Shared.Name.dot name "X") init;
    l = Shared.named (Shared.Name.dot name "L") (-1);
  }

let rec cas t ~who ~expected ~desired =
  Shared.write t.l who (* 1: announce *);
  let v = Shared.read t.x (* 2 *) in
  if Shared.read t.l <> who (* 3: preempted? retry, now preemption-free *) then
    cas t ~who ~expected ~desired
  else if v <> expected then false (* 4 *)
  else begin
    (* The flaw: a preemption can land between the check (3) and the
       write (5); the preemptor's completed CAS is then clobbered by a
       write based on a stale read, and there is no post-write
       validation that could repair it. *)
    Shared.write t.x desired (* 5 *);
    true (* 6 *)
  end

let read t = Shared.read t.x

let peek t = Shared.peek t.x
