// One-thread pipelining load generator for the wire protocol: up to
// `connections` non-blocking loopback sockets to one RbcServer, frames
// built once per held-out query with the public codecs and stamped with a
// request id at send time, responses matched back by id. Because requests
// are pipelined rather than sent by blocking clients, the server's queue
// can grow and its batches can form.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/net/protocol.hpp"
#include "util.hpp"

namespace pb {

class LoadGen {
 public:
  /// Called once per answered request: its id and the decoded response, or
  /// null when the server answered with an error frame.
  using OnResponse = std::function<void(std::uint64_t id,
                                        const rbc::serve::net::KnnResponseMsg*)>;

  LoadGen(std::uint16_t port, int connections,
          const rbc::Matrix<float>& queries, rbc::index_t k);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Queues query `qi` under request id `id` and tries to write it out.
  void send(std::uint64_t id, rbc::index_t qi);

  /// Waits up to `timeout_s` for socket activity, then writes what is
  /// pending and dispatches every complete response to `on_response`.
  void poll(double timeout_s, const OnResponse& on_response);

 private:
  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> out;
    std::size_t out_off = 0;
    std::vector<std::uint8_t> in;
    std::size_t in_off = 0;
  };
  void flush(Conn& c);
  void drain_input(Conn& c, const OnResponse& on_response);

  std::vector<Conn> conns_;
  std::vector<std::vector<std::uint8_t>> frames_;  // per query, id 0
};

}  // namespace pb
