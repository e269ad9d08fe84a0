(** Small directed-graph toolkit: adjacency lists over integer vertices
    [0..n-1], optionally weighted edges, Tarjan strongly-connected
    components, and positive-weight cycle detection.

    Used by the EPR sort-graph acyclicity check ([Smt.Epr]) and by the
    static-analysis passes in [Verus.Vlint] (termination call graph,
    quantifier instantiation graph). *)

type t

val create : int -> t
(** [create n] is an empty graph on vertices [0..n-1]. *)

val add_edge : t -> ?w:int -> int -> int -> unit
(** [add_edge g ~w u v] adds a directed edge [u -> v] with weight [w]
    (default [0]).  Parallel edges are kept; when several edges link the
    same pair the algorithms below consider the maximum weight. *)

val succ : t -> int -> (int * int) list
(** [succ g u] is the list of [(v, w)] successors of [u]. *)

val scc : t -> int list list
(** Tarjan's algorithm.  Returns the strongly-connected components in
    reverse topological order (callees before callers).  Every vertex
    appears in exactly one component. *)

val is_cyclic_component : t -> int list -> bool
(** A component is cyclic iff it has more than one vertex, or its single
    vertex has a self-loop. *)

val positive_cycle : t -> int list -> int list option
(** [positive_cycle g comp] detects whether the subgraph induced by
    [comp] contains a cycle of strictly positive total weight
    (Bellman–Ford, maximising).  Returns some witness vertex list
    (vertices on or reaching the cycle) if so. *)
