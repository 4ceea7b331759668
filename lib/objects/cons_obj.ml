open Hwf_sim

type 'a t = {
  mutable name : Shared.Name.t;
  consensus_number : int;
  mutable decided : 'a option;
  mutable invocations : int;
}

let named ?(consensus_number = max_int) name =
  if consensus_number < 1 then invalid_arg "Cons_obj.make: consensus_number < 1";
  { name; consensus_number; decided = None; invocations = 0 }

let make ?consensus_number name = named ?consensus_number (Shared.Name.v name)

(* Rendered once, like a variable's name (see {!Shared.name}). *)
let name t =
  match t.name with
  | Shared.Name.Lit s -> s
  | n ->
    let s = Shared.Name.render n in
    t.name <- Shared.Name.v s;
    s

let consensus_number t = t.consensus_number

let propose t v =
  Eff.step (Op.rmw ~var:(name t) ~kind:"propose");
  t.invocations <- t.invocations + 1;
  if t.invocations > t.consensus_number then None
  else begin
    (match t.decided with None -> t.decided <- Some v | Some _ -> ());
    t.decided
  end

let read t =
  Eff.step (Op.read (name t));
  t.decided

let invocations t = t.invocations
let peek t = t.decided
let exhausted t = t.invocations > t.consensus_number
