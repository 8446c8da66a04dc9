// Fixture: NW-S007 — socket I/O on the fleet data path outside the
// designated transport module.
fn leak(addr: &str, buf: &mut [u8]) {
    let sock = TcpStream::connect(addr); // line 4: fires NW-S007 (TcpStream)
    sock.set_nonblocking(true); // line 5: fires NW-S007 (set_nonblocking)
    sock.read_exact(buf); // line 6: fires NW-S007 (read_exact)
    sock.set_read_timeout(None); // line 7: fires NW-S007 (set_read_timeout)
}
