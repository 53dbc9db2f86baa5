(** The database pager: a fixed-capacity page cache with LRU eviction
    over a single database file, plus a rollback journal giving atomic
    transactions (SQLite-style: before a page is first modified inside
    a transaction its original content is appended to the journal;
    commit flushes dirty pages and deletes the journal; rollback
    replays it).

    Cache frames are page-aligned buffers in the application cubicle's
    heap; every miss, spill, journal append and sync goes through the
    OS interface — which is exactly the "uses the OS interface more
    often" axis that separates the two query groups of the paper's
    Figure 6. *)

val page_size : int

type journal_mode =
  | Rollback  (** journal the old content, write pages in place (default) *)
  | Wal
      (** write-ahead log: committed pages are appended to a [-wal]
          file and folded back into the database by {!checkpoint}
          (automatically on close, or when the log exceeds
          ~1000 pages). Readers consult the WAL index first. *)

type t

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable page_reads : int;
  mutable page_writes : int;
  mutable commits : int;
  mutable rollbacks : int;
}

val open_db : ?cache_pages:int -> ?journal_mode:journal_mode -> Os_iface.t -> path:string -> t
(** Opens or creates the database file. Default cache: 64 pages,
    rollback journal. An existing non-empty WAL from a previous session
    is recovered on open (its pages take precedence until the next
    checkpoint). *)

val journal_mode : t -> journal_mode

val checkpoint : t -> unit
(** WAL mode: fold the log back into the database file and truncate it.
    No-op in rollback mode or when the WAL is empty. Raises inside a
    transaction. *)

val wal_pages : t -> int
(** Entries currently in the write-ahead log (0 in rollback mode). *)

val close : t -> unit
(** Commits nothing: flushes dirty pages outside a transaction, then
    closes the files and frees the cache frames and scratch buffer in
    the application heap. Raises {!Cubicle.Types.Error} if a
    transaction is open. *)

val page_count : t -> int
val stats : t -> stats

val cached_pages : t -> int list
(** Page numbers currently held in cache frames, sorted — the
    observable the LRU eviction-order tests pin down. *)

val ctx : t -> Cubicle.Monitor.ctx
(** The application context frames live in (for reading frame bytes). *)

val stage : t -> bytes
(** A host buffer of {!page_size} bytes owned by this pager, for
    decoding a page read with [Api.read_into] and encoding one written
    with [Api.write_from] without allocating. Fill it and use it inside
    one {!read_page}/{!write_page} callback, with no monitor call in
    between: the buffer is shared by every user of this pager. *)

val allocate_page : t -> int
(** Extend the file by one (zeroed) page; returns its page number. *)

val read_page : t -> int -> (int -> 'a) -> 'a
(** [read_page t pageno f] pins the page's cache frame and calls
    [f addr] with the simulated-memory address of its contents. *)

val write_page : t -> int -> (int -> 'a) -> 'a
(** Like {!read_page} but journals the original content first (inside a
    transaction) and marks the frame dirty. *)

val begin_txn : t -> unit
val in_txn : t -> bool
val commit : t -> unit
val rollback : t -> unit

val flush : t -> unit
(** Write back all dirty frames (no transaction semantics). *)
