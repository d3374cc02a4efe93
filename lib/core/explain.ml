module Ev = Mx_util.Event_log

let attr_str (e : Ev.event) k =
  match List.assoc_opt k e.Ev.attrs with Some (Ev.Str s) -> Some s | _ -> None

let attr_int (e : Ev.event) k =
  match List.assoc_opt k e.Ev.attrs with Some (Ev.Int i) -> Some i | _ -> None

let value_to_string = function
  | Ev.Str s -> s
  | Ev.Int i -> string_of_int i
  | Ev.Float f -> Printf.sprintf "%g" f
  | Ev.Bool b -> string_of_bool b

(* a long structural key is unreadable inline: show a fixed-width
   prefix with an ellipsis *)
let abbrev ?(width = 24) k =
  if String.length k <= width then k else String.sub k 0 width ^ "..."

let summary ?(truncated = false) events =
  let count name =
    List.length (List.filter (fun (e : Ev.event) -> e.Ev.name = name) events)
  in
  let count_in stage name =
    List.length
      (List.filter
         (fun (e : Ev.event) -> e.Ev.name = name && e.Ev.stage = stage)
         events)
  in
  let sum_attr name k =
    List.fold_left
      (fun acc (e : Ev.event) ->
        if e.Ev.name = name then acc + Option.value ~default:0 (attr_int e k)
        else acc)
      0 events
  in
  let b = Buffer.create 1024 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string b s;
        Buffer.add_char b '\n')
      fmt
  in
  line "Funnel summary (%d events%s)" (List.length events)
    (if truncated then ", truncated tail ignored" else "");
  (List.filter (fun (e : Ev.event) -> e.Ev.name = "strategy.begin") events
  |> List.iter (fun e ->
         line "  Strategy: %s" (Option.value ~default:"?" (attr_str e "kind"))));
  (List.filter (fun (e : Ev.event) -> e.Ev.name = "strategy.full.projection")
     events
  |> List.iter (fun e ->
         line "  Full projection: %d simulations against a budget of %d"
           (Option.value ~default:0 (attr_int e "projected"))
           (Option.value ~default:0 (attr_int e "budget"))));
  if count "strategy.full.infeasible" > 0 then
    line "  Full strategy ABORTED: projection exceeds the budget";
  line "  Clustering: %d merges" (count "cluster.merge");
  line
    "  Assignment: %d levels (%d infeasible), %d enumerated, %d cap-pruned, \
     %d kept"
    (count "assign.level" + count "assign.level_infeasible")
    (count "assign.level_infeasible")
    (sum_attr "assign.level" "enumerated")
    (sum_attr "assign.level" "cap_pruned")
    (count "assign.kept");
  (* shard work-queue: planned at clustering time, finished in commit
     order; stolen/started records live under sched. and are dropped
     from canonical dumps, so only report them when present *)
  if count "shard.planned" > 0 then
    line
      "  Shard queue: %d shards planned (%d designs capped), %d finished \
       carrying %d designs%s"
      (count "shard.planned")
      (sum_attr "shard.planned" "cap")
      (count "shard.finished")
      (sum_attr "shard.finished" "designs")
      (match count "shard.sched.stolen" with
      | 0 -> ""
      | n -> Printf.sprintf ", %d stolen by pool workers" n);
  line
    "  Phase I: %d designs created -> %d kept, %d thinned (cost spread), %d \
     pruned (dominated)%s"
    (count "design.created") (count "design.kept") (count "design.thinned")
    (count "design.pruned")
    (match count "design.neighbor" with
    | 0 -> ""
    | n -> Printf.sprintf ", +%d neighbors re-added" n);
  line "  Phase II: %d designs simulated" (count_in "phase2" "design.evaluated");
  (* the anytime archive: every simulation is offered as it commits *)
  if count "archive.insert" + count "archive.reject" > 0 then begin
    let evict reason =
      List.length
        (List.filter
           (fun (e : Ev.event) ->
             e.Ev.name = "archive.evict" && attr_str e "reason" = Some reason)
           events)
    in
    line
      "  Archive: %d inserted, %d rejected (dominated on arrival), %d \
       displaced, %d evicted (capacity)"
      (count "archive.insert") (count "archive.reject") (evict "dominated")
      (evict "capacity")
  end;
  if count "design.refined" > 0 then
    line "  Refinement: %d designs re-simulated exactly" (count "design.refined");
  let sels =
    List.filter (fun (e : Ev.event) -> e.Ev.name = "design.selected") events
  in
  line "  Selected: %d designs" (List.length sels);
  let scenarios =
    List.fold_left
      (fun acc e ->
        match attr_str e "scenario" with
        | Some sc when not (List.mem sc acc) -> sc :: acc
        | _ -> acc)
      [] sels
    |> List.rev
  in
  List.iter
    (fun sc ->
      line "    %s: %d" sc
        (List.length
           (List.filter (fun e -> attr_str e "scenario" = Some sc) sels)))
    scenarios;
  let prov =
    List.filter
      (fun (e : Ev.event) -> e.Ev.name = "eval.cache.provenance")
      events
  in
  if prov <> [] then begin
    let by src =
      List.length (List.filter (fun e -> attr_str e "source" = Some src) prov)
    in
    line "  Cache (schedule-dependent): %d computed, %d hits, %d promoted"
      (by "computed") (by "hit") (by "promoted")
  end;
  (List.filter (fun (e : Ev.event) -> e.Ev.name = "strategy.end") events
  |> List.iter (fun e ->
         line "  Strategy %s finished: %d estimates, %d simulations"
           (Option.value ~default:"?" (attr_str e "kind"))
           (Option.value ~default:0 (attr_int e "estimates"))
           (Option.value ~default:0 (attr_int e "simulations"))));
  Buffer.contents b

let design_keys events =
  List.fold_left
    (fun acc (e : Ev.event) ->
      match attr_str e "design" with
      | Some k when not (List.mem k acc) -> k :: acc
      | _ -> acc)
    [] events
  |> List.rev

let is_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let resolve_key events ~key =
  let keys = design_keys events in
  if List.mem key keys then Ok key
  else
    match List.filter (is_prefix ~prefix:key) keys with
    | [ k ] -> Ok k
    | [] ->
      Error
        (Printf.sprintf "no design in the log matches %S (%d designs logged)"
           key (List.length keys))
    | ks ->
      Error
        (Printf.sprintf "ambiguous key %S: %d designs match, e.g. %s" key
           (List.length ks)
           (String.concat ", "
              (List.filteri (fun i _ -> i < 3) ks |> List.map abbrev)))

let lifecycle events ~key =
  match resolve_key events ~key with
  | Error _ as e -> e
  | Ok k ->
    (* map every created design to its human-readable id, to name
       dominating competitors *)
    let ids = Hashtbl.create 64 in
    List.iter
      (fun (e : Ev.event) ->
        if e.Ev.name = "design.created" then
          match (attr_str e "design", attr_str e "id") with
          | Some dk, Some id -> Hashtbl.replace ids dk id
          | _ -> ())
      events;
    let evs =
      Ev.canonical_sort
        (List.filter (fun e -> attr_str e "design" = Some k) events)
    in
    let b = Buffer.create 512 in
    let line fmt =
      Printf.ksprintf
        (fun s ->
          Buffer.add_string b s;
          Buffer.add_char b '\n')
        fmt
    in
    line "Design %s" k;
    (match Hashtbl.find_opt ids k with
    | Some id -> line "  id: %s" id
    | None -> ());
    List.iter
      (fun (e : Ev.event) ->
        match e.Ev.name with
        | "design.pruned" ->
          let dom = Option.value ~default:"" (attr_str e "dominated_by") in
          if dom = "" then
            line "  [%-7s #%d] pruned (dominated; no single competitor)"
              e.Ev.stage e.Ev.seq
          else
            line "  [%-7s #%d] pruned — dominated by %s%s" e.Ev.stage e.Ev.seq
              (abbrev dom)
              (match Hashtbl.find_opt ids dom with
              | Some id -> Printf.sprintf " (%s)" id
              | None -> "")
        | _ ->
          let rest =
            e.Ev.attrs
            |> List.filter (fun (k', _) -> k' <> "design")
            |> List.map (fun (k', v) ->
                   Printf.sprintf "%s=%s" k' (value_to_string v))
          in
          line "  [%-7s #%d] %s%s" e.Ev.stage e.Ev.seq e.Ev.name
            (if rest = [] then "" else " " ^ String.concat " " rest))
      evs;
    if evs = [] then line "  (no events)";
    Ok (Buffer.contents b)
