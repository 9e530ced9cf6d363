//! A journal written through a torn stream must be refused loudly.
//!
//! `dq_fault`'s `FaultWrite` with a `truncate` fault is the exact
//! adversary the journal checksum exists for: the writer *believes*
//! every byte landed (the torn write reports success), but only a
//! prefix reached the file — the one failure mode the stage + fsync +
//! rename protocol cannot see from inside the process. Whatever prefix
//! survives, parsing must produce a typed `Torn` refusal: never a
//! panic, never a shorter-but-plausible journal that would silently
//! restart part of the stream.

use dq_fault::{Fault, FaultKind, FaultPlan, FaultWrite, Unit};
use dq_job::{JobError, Journal, Watermark};
use std::io::Write;

fn fixture() -> Journal {
    let mut j = Journal::new("pollute", 0x1111_2222_3333_4444, 0x5555_6666_7777_8888);
    j.cursor_rows = 81_920;
    j.rng = Some([9, 8, 7, 6]);
    j.set_counter("dirty_rows", 82_001);
    j.set_output("dirty.csv", Watermark::Bytes(2_400_000));
    j.set_output("log.csv", Watermark::Bytes(31_000));
    j
}

#[test]
fn every_torn_write_prefix_is_refused_never_misparsed() {
    let text = fixture().render();
    for tear_at in 0..text.len() as u64 {
        let plan = FaultPlan::new(vec![Fault {
            kind: FaultKind::Truncate,
            unit: Unit::Byte,
            at: tear_at,
        }]);
        let mut w = FaultWrite::new(Vec::new(), &plan);
        // The torn write acknowledges the full journal...
        w.write_all(text.as_bytes()).unwrap();
        w.flush().unwrap();
        let persisted = w.into_inner();
        // ...but only a prefix persisted.
        assert_eq!(persisted.len() as u64, tear_at);
        let on_disk = String::from_utf8(persisted).unwrap();
        match Journal::parse(&on_disk, "job.dqj") {
            Err(JobError::Torn { path, .. }) => assert_eq!(path, "job.dqj"),
            other => panic!("tear at {tear_at} must be Torn, got {other:?}"),
        }
    }
}

#[test]
fn untorn_write_still_round_trips() {
    let j = fixture();
    let mut w = FaultWrite::new(Vec::new(), &FaultPlan::none());
    w.write_all(j.render().as_bytes()).unwrap();
    let text = String::from_utf8(w.into_inner()).unwrap();
    assert_eq!(Journal::parse(&text, "job.dqj").unwrap(), j);
}
