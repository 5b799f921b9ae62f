#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace pb {

namespace net = rbc::serve::net;

LoadGen::LoadGen(std::uint16_t port, int connections,
                 const rbc::Matrix<float>& queries, rbc::index_t k) {
  rbc::Matrix<float> one(1, queries.cols());
  for (rbc::index_t i = 0; i < queries.rows(); ++i) {
    one.copy_row_from(queries, i, 0);
    frames_.push_back(net::encode_knn_request(0, one, k));
  }
  for (int c = 0; c < connections; ++c) {
    Conn conn;
    conn.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (conn.fd < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(conn.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(conn.fd);
      throw std::runtime_error("connect to loopback server failed");
    }
    const int one_flag = 1;
    ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one_flag, sizeof one_flag);
    ::fcntl(conn.fd, F_SETFL, ::fcntl(conn.fd, F_GETFL) | O_NONBLOCK);
    conns_.push_back(std::move(conn));
  }
}

LoadGen::~LoadGen() {
  for (Conn& c : conns_) ::close(c.fd);
}

void LoadGen::send(std::uint64_t id, rbc::index_t qi) {
  Conn& c = conns_[id % conns_.size()];
  const std::vector<std::uint8_t>& frame = frames_[qi];
  const std::size_t at = c.out.size();
  c.out.insert(c.out.end(), frame.begin(), frame.end());
  std::memcpy(c.out.data() + at + 8, &id, sizeof id);  // header request_id
  flush(c);
}

void LoadGen::flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else {
      throw std::runtime_error("send to loopback server failed");
    }
  }
  c.out.clear();
  c.out_off = 0;
}

void LoadGen::poll(double timeout_s, const OnResponse& on_response) {
  std::vector<pollfd> fds;
  for (const Conn& c : conns_)
    fds.push_back({c.fd, static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)), 0});
  timespec ts{};
  const double t = timeout_s > 0 ? timeout_s : 0.0;
  ts.tv_sec = static_cast<time_t>(t);
  ts.tv_nsec = static_cast<long>((t - static_cast<double>(ts.tv_sec)) * 1e9);
  const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  if (ready < 0 && errno != EINTR) throw std::runtime_error("ppoll failed");
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL))
      throw std::runtime_error("loopback server closed a connection");
    if (fds[i].revents & POLLOUT) flush(conns_[i]);
    if (fds[i].revents & POLLIN) drain_input(conns_[i], on_response);
  }
}

void LoadGen::drain_input(Conn& c, const OnResponse& on_response) {
  std::uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
    if (n > 0) {
      c.in.insert(c.in.end(), buf, buf + n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    throw std::runtime_error("loopback server closed a connection");
  }
  for (;;) {
    const std::span<const std::uint8_t> avail(c.in.data() + c.in_off,
                                              c.in.size() - c.in_off);
    const auto header = net::parse_header(avail);
    if (!header || avail.size() < net::kHeaderSize + header->payload_len) break;
    const auto payload = avail.subspan(net::kHeaderSize, header->payload_len);
    if (header->op == net::Op::kKnnResponse) {
      const net::KnnResponseMsg msg = net::decode_knn_response(payload, header->version);
      on_response(header->request_id, &msg);
    } else {
      on_response(header->request_id, nullptr);
    }
    c.in_off += net::kHeaderSize + header->payload_len;
  }
  if (c.in_off == c.in.size()) {
    c.in.clear();
    c.in_off = 0;
  }
}

}  // namespace pb
