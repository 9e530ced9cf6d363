//! Train once, audit forever: persist a structure model, reload it in
//! a "later process", and stream fresh data through it at bounded
//! memory — with a report byte-identical to the in-memory path.
//!
//! ```text
//! cargo run --release --example model_persistence
//! ```

use data_audit::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. A reference snapshot: rule-structured data with controlled
    //    pollution (so the audit has something to find).
    let schema = SchemaBuilder::new()
        .nominal("product", ["disc", "drum", "vent", "cer"])
        .nominal("plant", ["B10", "B20", "M05"])
        .numeric("weight_kg", 0.5, 25.0)
        .date_ymd("built", (1999, 1, 1), (2003, 12, 31))
        .build()
        .expect("schema is well-formed");
    let mut rng = StdRng::seed_from_u64(2003);
    let benchmark = TestDataGenerator::new(schema.clone(), 8, 4000).generate(&mut rng);
    let (dirty, _log) = pollute(&benchmark.clean, &PollutionConfig::standard(), &mut rng);

    // 2. Train once: induce off-line and save the model. The file is
    //    versioned, human-diffable text; its header pins the schema
    //    fingerprint so it can never audit the wrong relation.
    let auditor = Auditor::default();
    let model = auditor.induce(&dirty).expect("induction succeeds");
    let mut model_file = Vec::new();
    model.save(&schema, &mut model_file).expect("model serializes");
    let text = String::from_utf8(model_file.clone()).unwrap();
    println!(
        "saved structure model: {} rules, {} bytes, fingerprint line: {}",
        model.n_rules(),
        model_file.len(),
        text.lines().nth(1).unwrap(),
    );
    for rule_line in text.lines().filter(|l| l.starts_with("rule ")).take(3) {
        println!("  {rule_line}");
    }

    // 3. Audit forever: a later process reloads the model and streams
    //    a CSV through it in small batches. Nothing but one batch is
    //    ever in memory.
    let engine = AuditEngine::load(schema.clone(), model_file.as_slice()).expect("model loads");
    let mut csv = Vec::new();
    write_csv(&dirty, &mut csv).expect("csv serializes");
    let batches = CsvChunkReader::new(schema.clone(), csv.as_slice(), 256).expect("valid header");
    let streamed = engine.detect(batches).expect("stream audit succeeds");

    // 4. The guarantee: byte-identical to the in-memory round trip.
    let in_memory = auditor.detect(&model, &dirty);
    assert_eq!(streamed.to_csv(&schema), in_memory.to_csv(&schema));
    assert_eq!(streamed, in_memory);
    println!(
        "\nstreamed {} rows in 256-row batches: {} suspicious, identical to the in-memory report",
        streamed.n_rows(),
        streamed.n_suspicious(),
    );
    println!("top findings:\n{}", streamed.render_top(&schema, 5));
}
