(* One [Domain.DLS] key per accumulator, and the list of every value
   the key ever created.  A domain registers its value with one
   compare-and-set when it first asks for it; after that [get] is a
   plain DLS lookup and the domain never touches shared state again. *)

type 'a t = {
  key : 'a Domain.DLS.key;
  all : 'a list Atomic.t;
}

let create init =
  let all = Atomic.make [] in
  let rec register v =
    let seen = Atomic.get all in
    if not (Atomic.compare_and_set all seen (v :: seen)) then register v
  in
  let key =
    Domain.DLS.new_key (fun () ->
        let v = init () in
        register v;
        v)
  in
  { key; all }

let get t = Domain.DLS.get t.key
let fold f acc t = List.fold_left f acc (Atomic.get t.all)
