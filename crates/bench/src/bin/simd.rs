//! The SIMD A/B: SIMD lowering against scalar and striped
//! baselines.
//!
//! Two experiments in one binary:
//!
//! 1. **SIMD vs scalar** — mandelbrot and the image filter chain at
//!    every dispatch level the CPU supports (forced via
//!    `bds_seq::force_level`), against the sequential reference, the
//!    `delay` pipeline lowering, and a rayon-style statically-striped
//!    baseline on the same pool width. All variants share one kernel,
//!    so outputs are bit-identical and checksum-verified here.
//! 2. **Byte kernels** — grep and wc with their `run_simd` variants at
//!    forced scalar and at the best detected level, against `run_delay`.
//!
//! Flags: `--quick`/`--full` (scale), `--json <path>` (machine-readable
//! export, schema `bds-bench/v2`). SIMD legs carry
//! `library: "simd:<level>"`.

use bds_bench::json::{JsonReport, Record};
use bds_bench::{arg_value, max_procs, measure_full, Scale};
use bds_metrics::{fmt_ratio, fmt_secs, Table};
use bds_seq::simd::{self, SimdLevel};
use bds_workloads::{grep, image, mandelbrot, wc};

#[global_allocator]
static ALLOC: bds_metrics::CountingAlloc = bds_metrics::CountingAlloc;

fn main() {
    let scale = Scale::from_args();
    let proto = scale.protocol();
    let json_path = arg_value("--json");
    let capture = json_path.is_some();
    let procs = max_procs();
    let levels = simd::supported_levels();
    println!(
        "SIMD A/B (scale: {:?}, P = {procs}, levels: {:?})",
        scale,
        levels.iter().map(|l| l.name()).collect::<Vec<_>>(),
    );
    println!();

    let mut rows: Vec<Record> = Vec::new();

    // -- mandelbrot ------------------------------------------------------
    let mandel = mandelbrot::Params {
        width: 512,
        height: scale.size(512),
        max_iter: 96,
    };
    {
        let n = mandel.pixels();
        let oracle = mandelbrot::checksum(&mandelbrot::reference(mandel));
        let m = measure_full(1, proto, capture, || mandelbrot::reference(mandel));
        rows.push(Record::from_measurement("mandelbrot", "seq", n, &m));
        let rayon_pool = rayon::ThreadPoolBuilder::new()
            .num_threads(procs)
            .build()
            .expect("rayon stand-in pool");
        let m = measure_full(procs, proto, capture, || {
            rayon_pool.install(|| mandelbrot::run_rayon(mandel))
        });
        rows.push(Record::from_measurement("mandelbrot", "rayon", n, &m));
        let m = measure_full(procs, proto, capture, || mandelbrot::run_delay(mandel));
        rows.push(Record::from_measurement("mandelbrot", "delay", n, &m));
        for &level in &levels {
            let guard = simd::force_level(level);
            assert_eq!(guard.applied(), level);
            let m = measure_full(procs, proto, capture, || mandelbrot::run_simd(mandel));
            rows.push(Record::from_measurement("mandelbrot", &format!("simd:{}", level.name()), n, &m));
            assert_eq!(
                mandelbrot::checksum(&mandelbrot::run_simd(mandel)),
                oracle,
                "mandelbrot diverged at level {}",
                level.name(),
            );
        }
    }

    // -- image filter chain ----------------------------------------------
    let img_p = image::Params {
        width: 2048,
        height: scale.size(1024),
        ..Default::default()
    };
    {
        let n = img_p.pixels();
        let img = image::generate(img_p);
        let oracle = image::checksum(&image::reference(img_p, &img));
        let m = measure_full(1, proto, capture, || image::reference(img_p, &img));
        rows.push(Record::from_measurement("image", "seq", n, &m));
        let rayon_pool = rayon::ThreadPoolBuilder::new()
            .num_threads(procs)
            .build()
            .expect("rayon stand-in pool");
        let m = measure_full(procs, proto, capture, || {
            rayon_pool.install(|| image::run_rayon(img_p, &img))
        });
        rows.push(Record::from_measurement("image", "rayon", n, &m));
        let m = measure_full(procs, proto, capture, || image::run_delay(img_p, &img));
        rows.push(Record::from_measurement("image", "delay", n, &m));
        for &level in &levels {
            let _guard = simd::force_level(level);
            let m = measure_full(procs, proto, capture, || image::run_simd(img_p, &img));
            rows.push(Record::from_measurement("image", &format!("simd:{}", level.name()), n, &m));
            assert_eq!(
                image::checksum(&image::run_simd(img_p, &img)),
                oracle,
                "image chain diverged at level {}",
                level.name(),
            );
        }
    }

    // -- byte kernels: grep & wc, scalar vs best level -------------------
    let byte_levels = [SimdLevel::Scalar, *levels.last().expect("scalar always supported")];
    {
        let p = grep::Params {
            n: scale.size(8_000_000),
            ..Default::default()
        };
        let text = grep::generate(&p);
        let pat = p.pattern.clone();
        let m = measure_full(procs, proto, capture, || grep::run_delay(&text, &pat));
        rows.push(Record::from_measurement("grep", "delay", p.n, &m));
        for &level in &byte_levels {
            let _guard = simd::force_level(level);
            let m = measure_full(procs, proto, capture, || grep::run_simd(&text, &pat));
            rows.push(Record::from_measurement("grep", &format!("simd:{}", level.name()), p.n, &m));
        }
    }
    {
        let n = scale.size(8_000_000);
        let text = wc::generate(wc::Params {
            n,
            ..Default::default()
        });
        let m = measure_full(procs, proto, capture, || wc::run_delay(&text));
        rows.push(Record::from_measurement("wc", "delay", n, &m));
        for &level in &byte_levels {
            let _guard = simd::force_level(level);
            let m = measure_full(procs, proto, capture, || wc::run_simd(&text));
            rows.push(Record::from_measurement("wc", &format!("simd:{}", level.name()), n, &m));
        }
    }

    // -- printed summary -------------------------------------------------
    for op in ["mandelbrot", "image", "grep", "wc"] {
        let op_rows: Vec<&Record> = rows.iter().filter(|r| r.op == op).collect();
        let baseline = op_rows
            .iter()
            .find(|r| r.library == "rayon" || r.library == "delay")
            .expect("every op has a baseline leg");
        let (base_lib, base_min) = (baseline.library.clone(), baseline.min_s);
        println!("== {op} (n = {}) ==", op_rows[0].n);
        let mut t = Table::new(vec!["variant", "mean", "min", &format!("{base_lib}/x")]);
        for r in &op_rows {
            t.row(vec![
                r.library.clone(),
                fmt_secs(r.mean_s),
                fmt_secs(r.min_s),
                fmt_ratio(base_min / r.min_s),
            ]);
        }
        println!("{}", t.render());
    }

    println!(
        "Expected shape: simd at the top level beats rayon and delay on \
         mandelbrot/image; grep/wc simd legs at or above delay."
    );

    if let Some(path) = json_path {
        let mut rep = JsonReport::new("simd", scale.name());
        for row in rows {
            rep.push(row);
        }
        match rep.write(&path) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("error: could not write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
