(** Indexed binary min-heap over integer keys with float priorities.

    Supports the decrease-key operation needed by Dijkstra's algorithm:
    every key in [0, capacity) may be present at most once. *)

type t

val create : int -> t
(** [create capacity] makes an empty heap accepting keys in
    [0, capacity). *)

val is_empty : t -> bool

val size : t -> int

val mem : t -> int -> bool
(** [mem h k] tells whether key [k] is currently in the heap. *)

val insert : t -> int -> float -> unit
(** [insert h k p] adds key [k] with priority [p]. Raises
    [Invalid_argument] if [k] is already present or out of range. *)

val decrease : t -> int -> float -> unit
(** [decrease h k p] lowers the priority of present key [k] to [p].
    Raises [Invalid_argument] if [k] is absent or [p] is larger than the
    current priority. *)

val insert_or_decrease : t -> int -> float array -> unit
(** [insert_or_decrease h k prio] inserts key [k] at priority [prio.(k)],
    or lowers its priority to [prio.(k)] if that is smaller; a no-op
    when the key is present with a smaller or equal priority. The
    priority is read from the caller's key-indexed array (a Dijkstra
    distance array) rather than passed as a float, which a call across
    modules would box. Raises [Invalid_argument] if [k] is out of range
    of the heap or of [prio]. *)

val pop_min : t -> int * float
(** Remove and return the (key, priority) pair with minimal priority.
    Raises [Invalid_argument] on an empty heap. *)

val pop_min_key : t -> int
(** {!pop_min} without boxing the priority into a tuple — for hot loops
    that can recover it elsewhere (e.g. a Dijkstra settle loop, where it
    equals the vertex's current tentative distance). *)

val clear : t -> unit
(** Remove every key in O(size), leaving the heap ready for reuse —
    cheaper than reallocating when the same heap serves many runs. *)

val priority : t -> int -> float
(** Current priority of a present key. Raises [Not_found] otherwise. *)
