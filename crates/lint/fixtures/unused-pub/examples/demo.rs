fn main() {
    println!("{}", lib::EXAMPLE_NAME);
}
