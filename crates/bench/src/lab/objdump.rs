//! `lab objdump` — compile a workload (or micro-kernel) at O3 and print
//! its program image: a header with the bundle count, image size and
//! entry point, one line per compiled loop, then the disassembly listing
//! with its symbol labels.

use compiler::{compile, CompileOptions};

use crate::cli::{Cli, Registry};

pub(crate) fn registry() -> Registry {
    Registry::new("objdump", "compile a workload and print its disassembly listing")
        .picks("<workload|matmul|daxpy|memcpy> (default: daxpy)")
}

pub(crate) fn run(cli: Cli) {
    if cli.picks.len() > 1 {
        eprintln!("error: objdump takes one workload, got {:?}", cli.picks);
        std::process::exit(2);
    }
    let name = cli.pick().unwrap_or("daxpy");

    let kernel = match name {
        "matmul" => workloads::micro::matrix_multiply(64, 2).kernel,
        "daxpy" => workloads::micro::daxpy(4096, 2).kernel,
        "memcpy" => workloads::micro::memcpy(1 << 16, 2).kernel,
        other => match workloads::by_name(other, 0.05) {
            Some(w) => w.kernel,
            None => {
                eprintln!("unknown workload `{other}`");
                std::process::exit(1);
            }
        },
    };
    let bin = compile(&kernel, &CompileOptions::o3()).expect("compiles");
    let program = &bin.program;
    println!(
        "; {} — {} bundles, {} bytes, entry {}",
        kernel.name,
        program.len(),
        program.size_bytes(),
        program.entry()
    );
    for info in &bin.loops {
        println!(
            "; loop `{}` [{} .. {}) trip={}{}",
            info.name,
            info.head,
            info.end,
            info.trip,
            if info.has_static_prefetch { " +prefetch" } else { "" }
        );
    }
    print!("{program}");
}
