//! An interactive entangled-query shell over the `Coordinator` service
//! — the kind of front end the paper's Figure 5 puts above the
//! coordination middleware. Outcomes arrive over the service's event
//! stream (no polling); queries belong to the shell's session and are
//! withdrawn when the shell exits.
//!
//! Commands (one per line):
//!
//! ```text
//! .table <name> <col> [<col> ...]     create a database table
//! .insert <name> <v1> [<v2> ...]      insert a row (ints parsed, rest strings)
//! .mode incremental | batch           switch the service's mode
//! .flush                              set-at-a-time evaluation round
//! .pending                            number of pending queries
//! .watch                              drain and print queued events
//! .cancel <id>                        withdraw a pending query
//! .deadline <seconds> | off           deadline for subsequent queries
//! .help                               this text
//! .quit                               exit
//! {C} H <- B                          submit a query in IR text form
//! SELECT ... INTO ANSWER ... CHOOSE 1 submit a query in entangled SQL
//! ```
//!
//! Try: `cargo run --example repl` and paste the quickstart script
//! printed by `.help`, or pipe a script:
//! `printf '...' | cargo run --example repl`.

use entangled_queries::prelude::*;
use entangled_queries::sql::Catalog;
use std::io::{BufRead, Write};
use std::time::Duration;

struct Shell {
    coordinator: Coordinator,
    session: Session,
    events: Events,
    catalog: Catalog,
    incremental: bool,
    /// Default deadline applied to subsequent submissions.
    deadline: Option<Duration>,
    /// Evictions already reported by `.watch` (DropOldest accounting).
    dropped_seen: u64,
}

const DEMO: &str = r#"  .table Flights fno dest
  .insert Flights 122 Paris
  .insert Flights 136 Rome
  .deadline 30
  {R(Jerry, x)} R(Kramer, x) <- Flights(x, Paris)
  {R(Kramer, y)} R(Jerry, y) <- Flights(y, Paris)
  .watch
"#;

fn new_service(db: Database, incremental: bool) -> (Coordinator, Session, Events) {
    let mode = if incremental {
        EngineMode::Incremental
    } else {
        EngineMode::SetAtATime { batch_size: 0 }
    };
    let coordinator = Coordinator::new(
        db,
        EngineConfig {
            mode,
            ..Default::default()
        },
    );
    // The shell drains lazily on its own thread (`.watch`, post-flush),
    // so a Block subscription could stall a large flush against the
    // full queue. DropOldest keeps the shell responsive at any scale;
    // evictions are counted and reported by `.watch`.
    let events = coordinator.subscribe_with(4096, OverflowPolicy::DropOldest);
    let session = coordinator.session();
    (coordinator, session, events)
}

fn main() {
    let (coordinator, session, events) = new_service(Database::new(), true);
    let mut shell = Shell {
        coordinator,
        session,
        events,
        catalog: Catalog::new(),
        incremental: true,
        deadline: None,
        dropped_seen: 0,
    };
    println!("entangled-queries shell — .help for commands");
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        println!("> {line}");
        if line == ".quit" {
            break;
        }
        if let Err(msg) = shell.dispatch(line) {
            println!("error: {msg}");
        }
        shell.print_events(false);
        std::io::stdout().flush().ok();
    }
    // Final drain for batch users who forgot to flush.
    if !shell.incremental {
        shell.coordinator.flush();
        shell.print_events(false);
    }
}

impl Shell {
    fn dispatch(&mut self, line: &str) -> Result<(), String> {
        if let Some(rest) = line.strip_prefix('.') {
            return self.command(rest);
        }
        // A query: SQL if it starts with SELECT, IR text otherwise.
        let query = if line.to_ascii_lowercase().starts_with("select") {
            parse_entangled_sql(line, &self.catalog).map_err(|e| e.to_string())?
        } else {
            parse_ir_query(line).map_err(|e| e.to_string())?
        };
        let mut request = SubmitRequest::new(query);
        if let Some(bound) = self.deadline {
            request = request.staleness(bound);
        }
        let handle = self.session.submit(request).map_err(|e| e.to_string())?;
        println!("submitted as {}", handle.id);
        Ok(())
    }

    fn command(&mut self, rest: &str) -> Result<(), String> {
        let parts: Vec<&str> = rest.split_whitespace().collect();
        match parts.as_slice() {
            ["help"] => {
                println!(
                    "commands: .table .insert .mode .flush .pending .watch .cancel \
                     .deadline .help .quit"
                );
                println!("demo script:\n{DEMO}");
                Ok(())
            }
            ["table", name, cols @ ..] if !cols.is_empty() => {
                self.coordinator
                    .db()
                    .write()
                    .create_table(name, cols)
                    .map_err(|e| e.to_string())?;
                self.catalog.add_table(name, cols);
                println!("created {name}({})", cols.join(", "));
                Ok(())
            }
            ["insert", name, values @ ..] if !values.is_empty() => {
                let row: Vec<Value> = values
                    .iter()
                    .map(|v| match v.parse::<i64>() {
                        Ok(i) => Value::int(i),
                        Err(_) => Value::str(v),
                    })
                    .collect();
                self.coordinator
                    .db()
                    .write()
                    .insert(name, row)
                    .map_err(|e| e.to_string())?;
                println!("ok");
                Ok(())
            }
            ["mode", "incremental"] => {
                self.rebuild_service(true);
                println!("mode: incremental");
                Ok(())
            }
            ["mode", "batch"] => {
                self.rebuild_service(false);
                println!("mode: set-at-a-time (use .flush)");
                Ok(())
            }
            ["flush"] => {
                let report = self.coordinator.flush();
                println!(
                    "flush: {} answered, {} failed, {} pending",
                    report.answered, report.failed, report.pending
                );
                Ok(())
            }
            ["pending"] => {
                println!("{} pending", self.coordinator.pending_count());
                Ok(())
            }
            ["watch"] => {
                self.print_events(true);
                Ok(())
            }
            ["cancel", id] => {
                let id: u64 = id.parse().map_err(|_| format!("bad query id {id:?}"))?;
                self.coordinator
                    .cancel(QueryId(id))
                    .map_err(|e| e.to_string())?;
                println!("cancelled {}", QueryId(id));
                Ok(())
            }
            ["deadline", "off"] => {
                self.deadline = None;
                println!("deadline: off");
                Ok(())
            }
            ["deadline", secs] => {
                let secs: u64 = secs
                    .parse()
                    .map_err(|_| format!("bad deadline {secs:?} (seconds or 'off')"))?;
                self.deadline = Some(Duration::from_secs(secs));
                println!("deadline: {secs}s for subsequent queries");
                Ok(())
            }
            other => Err(format!("unknown command {other:?} — try .help")),
        }
    }

    /// Mode changes rebuild the service over a snapshot of the database
    /// (pending queries do not survive a mode switch; the old session's
    /// drop withdraws them).
    fn rebuild_service(&mut self, incremental: bool) {
        self.incremental = incremental;
        let snapshot = self.coordinator.db().read().snapshot();
        let (coordinator, session, events) = new_service(snapshot, incremental);
        self.coordinator = coordinator;
        self.session = session;
        self.events = events;
    }

    /// Prints queued events. Terminal events always print; `verbose`
    /// additionally prints flush reports and a placeholder when the
    /// stream is empty (the `.watch` command).
    fn print_events(&mut self, verbose: bool) {
        let mut any = false;
        for event in self.events.drain() {
            match &*event {
                Event::Answered { id, answer, .. } => {
                    any = true;
                    for (rel, tup) in answer.relations.iter().zip(&answer.tuples) {
                        let rendered: Vec<String> = tup.iter().map(ToString::to_string).collect();
                        println!("{id} answered: {rel}({})", rendered.join(", "));
                    }
                }
                Event::Failed { id, reason, .. } => {
                    any = true;
                    println!("{id} failed: {reason}");
                }
                Event::Expired { id, .. } => {
                    any = true;
                    println!("{id} expired (deadline)");
                }
                Event::Cancelled { id, .. } => {
                    any = true;
                    println!("{id} cancelled");
                }
                Event::Flushed(report) => {
                    if verbose {
                        any = true;
                        println!(
                            "flushed: {} answered, {} failed, {} pending",
                            report.answered, report.failed, report.pending
                        );
                    }
                }
            }
        }
        let dropped = self.events.stats().dropped;
        if dropped > self.dropped_seen {
            println!(
                "(event queue overflowed: {} oldest events evicted since last report)",
                dropped - self.dropped_seen
            );
            self.dropped_seen = dropped;
        }
        if verbose && !any {
            println!("(no events)");
        }
    }
}
