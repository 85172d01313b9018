module Time = Units.Time
module Engine = Nimbus_sim.Engine
module Bottleneck = Nimbus_sim.Bottleneck
module Packet = Nimbus_sim.Packet

type node = {
  node_id : int;
  name : string;
}

(* A link's forwarding handlers are built once and shared by every flow
   that crosses it: [ingress] injects at the link, [last_hop] hands a
   packet that crossed it to its flow's sink, and [next_hops] forwards to
   each next link some route has taken, built at the first [attach] that
   needs it.  So attaching a flow stores handlers into tables and builds
   none. *)
type link = {
  src : node;
  dst : node;
  bn : Bottleneck.t;
  prop_delay : Time.t; (* boxed once: every forwarding event passes it *)
  mutable ingress : Packet.t -> unit;
  mutable last_hop : Packet.t -> unit;
  mutable next_hops : hop list;
}

and hop = {
  next : link;
  forward : Packet.t -> unit;
}

type t = {
  engine : Engine.t;
  (* reverse creation order; accessors re-reverse.  Plain lists keep the
     module free of Hashtbl iteration (determinism pass) — topologies are
     tens of links, not thousands. *)
  mutable nodes_rev : node list;
  mutable links_rev : link list;
  mutable next_node : int;
  (* each attached flow's sink, indexed by flow id (an engine hands ids
     out densely from 0); it starts empty and doubles *)
  mutable sinks : (Packet.t -> unit) array;
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
  { engine; nodes_rev = []; links_rev = []; next_node = 0; sinks = [||];
    injected = 0; completed = 0; in_transit = 0 }

let engine t = t.engine

let add_node t name =
  let n = { node_id = t.next_node; name } in
  t.next_node <- t.next_node + 1;
  t.nodes_rev <- n :: t.nodes_rev;
  n

let nodes t = List.rev t.nodes_rev

let no_handler (_ : Packet.t) = ()

(* [arrive] runs once a packet has crossed [l]'s propagation delay.  A
   zero-delay link forwards with a direct call — no scheduled event — which
   is what keeps the degenerate dumbbell's pinned trace unchanged. *)
let crossing t l arrive =
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

let add_link t ~src ~dst (c : Link.Config.t) =
  if src.node_id = dst.node_id then
    invalid_arg "Topology.add_link: self-loop";
  let prop = Time.to_secs c.prop_delay in
  if not (Float.is_finite prop) || prop < 0. then
    invalid_arg "Topology.add_link: prop_delay must be finite and >= 0";
  let bn = Bottleneck.create t.engine c.bottleneck in
  let l =
    { src; dst; bn; prop_delay = c.prop_delay; ingress = no_handler;
      last_hop = no_handler; next_hops = [] }
  in
  l.ingress <-
    (fun pkt ->
      t.injected <- t.injected + 1;
      Bottleneck.enqueue bn pkt);
  l.last_hop <-
    crossing t l (fun pkt ->
        t.completed <- t.completed + 1;
        t.sinks.(Packet.flow pkt) pkt);
  t.links_rev <- l :: t.links_rev;
  l

let links t = List.rev t.links_rev

let link_label l = l.src.name ^ "->" ^ l.dst.name

let link_bottleneck l = l.bn

let rec forward_to next = function
  | [] -> no_handler
  | h :: rest -> if h.next == next then h.forward else forward_to next rest
[@@alloc_free]

(* the handler that carries a packet across [l] to [next], made at the
   first route that takes the pair *)
let hop t l next =
  let f = forward_to next l.next_hops in
  if f != no_handler then f
  else begin
    let f = crossing t l (fun pkt -> Bottleneck.enqueue next.bn pkt) in
    l.next_hops <- { next; forward = f } :: l.next_hops;
    f
  end

let rec mem_link l = function
  | [] -> false
  | x :: rest -> x == l || mem_link l rest
[@@alloc_free]

let rec check_route t = function
  | [] -> ()
  | l :: rest ->
    if not (mem_link l t.links_rev) then
      invalid_arg
        (Printf.sprintf "Topology.attach: link %s is not in this topology"
           (link_label l));
    check_route t rest
[@@alloc_free]

let rec wire t ~flow = function
  | [] -> ()
  | [ l ] -> Bottleneck.set_sink l.bn ~flow l.last_hop
  | l :: (next :: _ as rest) ->
    Bottleneck.set_sink l.bn ~flow
      (hop t l next [@alloc_ok "once per (link, next link)"]);
    wire t ~flow rest
[@@alloc_free]

let grow_sinks t flow =
  let n = Array.length t.sinks in
  let sinks = Array.make (max 16 (max (flow + 1) (2 * n))) no_handler in
  Array.blit t.sinks 0 sinks 0 n;
  t.sinks <- sinks

(* Every link of the route is checked before anything is stored, so a
   rejected route leaves the topology as it was. *)
let attach t ~route ~flow ~sink =
  check_route t route;
  if flow < 0 then invalid_arg "Topology.attach: negative flow id";
  if flow >= Array.length t.sinks then
    (grow_sinks t flow [@alloc_ok "amortized doubling of the sink table"]);
  t.sinks.(flow) <- sink;
  wire t ~flow route;
  match route with
  | l :: _ -> l.ingress
  | [] -> invalid_arg "Topology.attach: empty route"
[@@alloc_free]

let injected_packets t = t.injected

let completed_packets t = t.completed

let in_transit_packets t = t.in_transit

let link_balanced l =
  Bottleneck.offered_packets l.bn
  = Bottleneck.delivered_packets l.bn + Bottleneck.drops l.bn
    + Bottleneck.queued_packets l.bn

(* the first unbalanced link in creation order, from the reversed list *)
let rec first_unbalanced = function
  | [] -> None
  | l :: older -> (
    match first_unbalanced older with
    | Some _ as found -> found
    | None -> if link_balanced l then None else Some l)

let rec sum_offered acc = function
  | [] -> acc
  | l :: rest -> sum_offered (acc + Bottleneck.offered_packets l.bn) rest

let rec sum_delivered acc = function
  | [] -> acc
  | l :: rest -> sum_delivered (acc + Bottleneck.delivered_packets l.bn) rest

(* Walked by plain recursion over the reversed link list, so a check that
   finds every ledger balanced allocates nothing (the invariant monitor
   runs it every 10 ms); the message is built only for a violation. *)
let conservation_check t =
  match first_unbalanced t.links_rev with
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
      let sum_off = sum_offered 0 t.links_rev in
      let sum_del = sum_delivered 0 t.links_rev in
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
