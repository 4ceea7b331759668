type 'a op = Cas of 'a * 'a | Store of 'a

type 'a t = ('a, 'a op, bool) Chain.t

let apply s = function
  | Cas (expected, desired) -> if s = expected then (desired, true) else (s, false)
  | Store v -> (v, true)

let named name init = Chain.named ~name ~init ~apply
let make name init = named (Hwf_sim.Shared.Name.v name) init

let cas t ~who ~expected ~desired = Chain.invoke t ~who (Cas (expected, desired))

let read t = Chain.read t

let write t ~who v = ignore (Chain.invoke t ~who (Store v))

let peek t = Chain.peek_state t

let max_attempts t = Chain.max_attempts t
