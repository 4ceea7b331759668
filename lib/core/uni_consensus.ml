open Hwf_sim

type 'a t = { mutable name : Shared.Name.t; p : 'a option Shared.t array }

let named name = { name; p = Shared.array (Shared.Name.dot name "P") 3 (fun _ -> None) }
let make name = named (Shared.Name.v name)

(* Rendered once, like a variable's name (see {!Shared.name}). *)
let name t =
  match t.name with
  | Shared.Name.Lit s -> s
  | n ->
    let s = Shared.Name.render n in
    t.name <- Shared.Name.v s;
    s

let statements_per_decide = 8

(* Fig. 3, statements numbered as in the paper:
     1: v := val
     2: for i := 1 to 3 do          (folded into the loop structure)
     3:   w := P[i]
     4:   if w <> bot then
     5:     v := w
          else
     6:     P[i] := v
     7: return P[3]
   Unrolled: 1 + 3*2 + 1 = 8 statements. *)
let decide t value =
  Eff.local (name t ^ ".v:=val");
  let v = ref value in
  for i = 0 to 2 do
    match Shared.read t.p.(i) with
    | Some w -> Eff.local (name t ^ ".v:=w"); v := w
    | None -> Shared.write t.p.(i) (Some !v)
  done;
  match Shared.read t.p.(2) with
  | Some d -> d
  | None -> assert false (* P[3] is stable and was written by this process if empty *)

let read t =
  match Shared.read t.p.(0) with
  | None -> None
  | Some v -> Some (decide t v)

let peek t = Shared.peek t.p.(2)
