//! The stack contract: the checker walks the declaration spine in a
//! loop, so library-sized programs check on an ordinary 2 MiB thread.
//! Its stack use does not grow with the number of declarations. (The
//! parser still recurses once per declaration, so parsing runs on a
//! pool-sized stack.)

const SMALL_STACK: usize = 2 * 1024 * 1024;

/// Parses `src`, then checks it on a fresh thread with a
/// [`SMALL_STACK`] stack, returning the program's type.
fn check_on_small_stack(src: String) -> String {
    let expr = std::thread::Builder::new()
        .stack_size(fg::pool::WORKER_STACK)
        .spawn(move || fg::parser::parse_expr(&src).expect("parses"))
        .expect("spawn parser thread")
        .join()
        .expect("parsing does not panic");
    std::thread::Builder::new()
        .stack_size(SMALL_STACK)
        .spawn(move || fg::check_program(&expr).expect("checks").ty.to_string())
        .expect("spawn checker thread")
        .join()
        .expect("checking does not panic")
}

#[test]
fn prelude_checks_on_a_small_stack() {
    assert_eq!(check_on_small_stack(fg::stdlib::with_prelude("42")), "int");
}

#[test]
fn graph_library_checks_on_a_small_stack() {
    let src = fg::graph::with_graph_lib(fg::graph::CYCLE_MODEL, "is_connected[int](5)");
    assert_eq!(check_on_small_stack(src), "bool");
}

#[test]
fn wide_model_spines_check_on_a_small_stack() {
    // 256 and 2048 declarations: one stack frame per declaration would
    // overflow 2 MiB at the larger width even with small frames.
    for width in [128, 1024] {
        assert_eq!(check_on_small_stack(bench::many_models_program(width)), "int");
    }
}
