fn main() -> std::process::ExitCode {
    chameleon_benchmark::cli::main()
}
