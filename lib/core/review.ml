type diff_id = int

type state =
  | Pending
  | Accepted of string
  | Rejected of string * string

type diff = {
  id : diff_id;
  author : string;
  title : string;
  base : Cm_vcs.Store.oid option;
  changes : Cm_vcs.Repo.change list;
  mutable state : state;
  mutable test_results : Defense.verdict list;
}

type t = { diffs : (diff_id, diff) Hashtbl.t; mutable next_id : diff_id }

let create () = { diffs = Hashtbl.create 32; next_id = 1 }

let submit t ~author ~title ~base changes =
  let id = t.next_id in
  t.next_id <- id + 1;
  Hashtbl.replace t.diffs id
    { id; author; title; base; changes; state = Pending; test_results = [] };
  id

let get t id = Hashtbl.find_opt t.diffs id

let post_verdicts t id verdicts =
  match get t id with
  | Some diff when verdicts <> [] -> diff.test_results <- diff.test_results @ verdicts
  | Some _ | None -> ()

let post_verdict t id verdict = post_verdicts t id [ verdict ]

let post_test_result t id ~name ~passed ~detail =
  let verdict =
    if passed then Defense.pass ~stage:"review" ~rule:name detail
    else Defense.fail ~stage:"review" ~rule:name detail
  in
  post_verdict t id verdict

let approve t id ~reviewer =
  match get t id with
  | None -> Error "no such diff"
  | Some diff -> (
      if String.equal reviewer diff.author then Error "self-review is not allowed"
      else
        match diff.state with
        | Pending ->
            diff.state <- Accepted reviewer;
            Ok ()
        | Accepted _ -> Error "already accepted"
        | Rejected _ -> Error "already rejected")

let reject t id ~reviewer ~reason =
  match get t id with
  | None -> Error "no such diff"
  | Some diff -> (
      match diff.state with
      | Pending ->
          diff.state <- Rejected (reviewer, reason);
          Ok ()
      | Accepted _ -> Error "already accepted"
      | Rejected _ -> Error "already rejected")

let pending t =
  Hashtbl.fold
    (fun _ diff acc -> match diff.state with Pending -> diff :: acc | _ -> acc)
    t.diffs []
  |> List.sort (fun a b -> Int.compare a.id b.id)

let count t = Hashtbl.length t.diffs
