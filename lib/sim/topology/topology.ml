module Time = Units.Time
module Engine = Nimbus_sim.Engine
module Bottleneck = Nimbus_sim.Bottleneck
module Packet = Nimbus_sim.Packet

type node = {
  node_id : int;
  name : string;
}

type link = {
  src : node;
  dst : node;
  bn : Bottleneck.t;
  prop_delay : Time.t; (* boxed once: every forwarding event passes it *)
}

type t = {
  engine : Engine.t;
  (* reverse creation order; accessors re-reverse.  Plain lists keep the
     module free of Hashtbl iteration (determinism pass) — topologies are
     tens of links, not thousands. *)
  mutable nodes_rev : node list;
  mutable links_rev : link list;
  mutable next_node : int;
  (* fabric-level conservation ledger, complementing each link's own
     offered/delivered/drops/queued counters *)
  mutable injected : int;
  mutable completed : int;
  mutable in_transit : int;
}

module Link = struct
  module Config = struct
    type t = {
      bottleneck : Bottleneck.Config.t;
      prop_delay : Time.t;
    }

    let default ~rate ~qdisc =
      { bottleneck = Bottleneck.Config.default ~rate ~qdisc;
        prop_delay = Time.zero }
  end
end

module Route = struct
  type nonrec t = link list

  let of_links links =
    (match links with [] -> invalid_arg "Route.of_links: empty" | _ -> ());
    let rec check = function
      | a :: (b :: _ as rest) ->
        if a.dst.node_id <> b.src.node_id then
          invalid_arg
            (Printf.sprintf
               "Route.of_links: link %s->%s does not end where %s->%s starts"
               a.src.name a.dst.name b.src.name b.dst.name);
        check rest
      | [ _ ] | [] -> ()
    in
    check links;
    links

  let links t = t

  let hops t = List.length t
end

let create engine =
  { engine; nodes_rev = []; links_rev = []; next_node = 0; injected = 0;
    completed = 0; in_transit = 0 }

let engine t = t.engine

let add_node t name =
  let n = { node_id = t.next_node; name } in
  t.next_node <- t.next_node + 1;
  t.nodes_rev <- n :: t.nodes_rev;
  n

let nodes t = List.rev t.nodes_rev

let add_link t ~src ~dst (c : Link.Config.t) =
  if src.node_id = dst.node_id then
    invalid_arg "Topology.add_link: self-loop";
  let prop = Time.to_secs c.prop_delay in
  if not (Float.is_finite prop) || prop < 0. then
    invalid_arg "Topology.add_link: prop_delay must be finite and >= 0";
  let bn = Bottleneck.create t.engine c.bottleneck in
  let l = { src; dst; bn; prop_delay = c.prop_delay } in
  t.links_rev <- l :: t.links_rev;
  l

let links t = List.rev t.links_rev

let link_label l = l.src.name ^ "->" ^ l.dst.name

let link_bottleneck l = l.bn

let attach t ~route ~flow ~sink =
  let rl = Route.links route in
  List.iter
    (fun (l : link) ->
      if not (List.memq l t.links_rev) then
        invalid_arg
          (Printf.sprintf "Topology.attach: link %s is not in this topology"
             (link_label l)))
    rl;
  List.iteri
    (fun i (l : link) ->
      let arrive =
        match List.nth_opt rl (i + 1) with
        | Some next ->
          fun (pkt : Packet.t) -> Bottleneck.enqueue next.bn pkt
        | None ->
          fun (pkt : Packet.t) ->
            t.completed <- t.completed + 1;
            sink pkt
      in
      (* [arrive] runs once the packet has crossed [l]'s propagation
         delay, through one [landed] handler per (link, flow).  A
         zero-delay link forwards with a direct call — no scheduled event —
         which is what keeps the degenerate dumbbell's pinned trace
         unchanged. *)
      let crossed =
        if (l.prop_delay :> float) <= 0. then arrive
        else begin
          let landed pkt =
            t.in_transit <- t.in_transit - 1;
            arrive pkt
          in
          fun pkt ->
            t.in_transit <- t.in_transit + 1;
            Engine.schedule_pkt_in t.engine l.prop_delay landed pkt
        end
      in
      Bottleneck.set_sink l.bn ~flow crossed)
    rl;
  let first = List.hd rl in
  fun (pkt : Packet.t) ->
    t.injected <- t.injected + 1;
    Bottleneck.enqueue first.bn pkt

let injected_packets t = t.injected

let completed_packets t = t.completed

let in_transit_packets t = t.in_transit

let conservation_check t =
  let bad_link =
    List.find_opt
      (fun l ->
        let off = Bottleneck.offered_packets l.bn in
        let del = Bottleneck.delivered_packets l.bn in
        let drops = Bottleneck.drops l.bn in
        let queued = Bottleneck.queued_packets l.bn in
        off <> del + drops + queued)
      (links t)
  in
  match bad_link with
  | Some l ->
    Some
      (Printf.sprintf
         "link %s: offered=%d <> delivered=%d + drops=%d + queued=%d"
         (link_label l)
         (Bottleneck.offered_packets l.bn)
         (Bottleneck.delivered_packets l.bn)
         (Bottleneck.drops l.bn)
         (Bottleneck.queued_packets l.bn))
  | None ->
    if t.in_transit < 0 then
      Some (Printf.sprintf "in_transit=%d < 0" t.in_transit)
    else begin
      let sum_off, sum_del =
        List.fold_left
          (fun (o, d) l ->
            ( o + Bottleneck.offered_packets l.bn,
              d + Bottleneck.delivered_packets l.bn ))
          (0, 0) (links t)
      in
      (* every offered packet is either an ingress injection or a forward
         of a delivered one; deliveries either forward, sit in transit, or
         complete — so the two sums cancel against the fabric counters *)
      let residue =
        sum_off - t.injected - sum_del + t.completed + t.in_transit
      in
      if residue <> 0 then
        Some
          (Printf.sprintf
             "fabric ledger off by %d (offered=%d injected=%d delivered=%d \
              completed=%d in_transit=%d)"
             residue sum_off t.injected sum_del t.completed t.in_transit)
      else None
    end

let dumbbell engine (c : Link.Config.t) =
  let t = create engine in
  let src = add_node t "src" in
  let dst = add_node t "dst" in
  let l = add_link t ~src ~dst c in
  (t, Route.of_links [ l ])
