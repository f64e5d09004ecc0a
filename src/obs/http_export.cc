#include "obs/http_export.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "net/socket.h"
#include "obs/export.h"
#include "obs/recorder.h"
#include "serde/json.h"
#include "util/io.h"
#include "util/strings.h"

namespace lfm::obs {
namespace {

// A request head larger than this is hostile for a GET-only endpoint.
constexpr size_t kMaxRequestBytes = 16 * 1024;
constexpr double kClientDeadlineSeconds = 10.0;

}  // namespace

HttpEndpoint::HttpEndpoint(net::EventLoop& loop, HttpEndpointConfig config)
    : loop_(loop),
      config_(std::move(config)),
      // Listener binds in its constructor and throws lfm::Error("bind ...")
      // on a port already in use — the caller's fail-fast contract.
      listener_(loop_, config_.port, config_.bind_addr) {
  listener_.set_on_accept([this](int fd) {
    net::set_nonblocking(fd);
    Client& client = clients_[fd];
    client.deadline_timer = loop_.run_after(
        kClientDeadlineSeconds, [this, fd] { close_client(fd); });
    loop_.add_fd(fd, EPOLLIN,
                 [this, fd](uint32_t events) { on_client_event(fd, events); });
  });
  listener_.start();
}

HttpEndpoint::~HttpEndpoint() {
  while (!clients_.empty()) close_client(clients_.begin()->first);
}

void HttpEndpoint::close_client(int fd) {
  const auto it = clients_.find(fd);
  if (it == clients_.end()) return;
  loop_.cancel_timer(it->second.deadline_timer);
  if (loop_.has_fd(fd)) loop_.remove_fd(fd);
  ::close(fd);
  clients_.erase(it);
}

void HttpEndpoint::on_client_event(int fd, uint32_t events) {
  const auto it = clients_.find(fd);
  if (it == clients_.end()) return;
  Client& client = it->second;
  if (events & (EPOLLERR | EPOLLHUP)) {
    close_client(fd);
    return;
  }
  if (events & EPOLLIN) {
    const io::ReadStatus status = io::read_available(fd, client.in);
    if (status == io::ReadStatus::kError ||
        (status == io::ReadStatus::kEof && !client.responded)) {
      close_client(fd);
      return;
    }
    if (client.in.size() > kMaxRequestBytes) {
      close_client(fd);
      return;
    }
    if (!client.responded) try_respond(fd, client);
  }
  if ((events & EPOLLOUT) && client.responded) flush(fd, client);
}

void HttpEndpoint::try_respond(int fd, Client& client) {
  // The request is complete at the header terminator; GETs have no body.
  const std::string head(client.in.begin(), client.in.end());
  if (head.find("\r\n\r\n") == std::string::npos &&
      head.find("\n\n") == std::string::npos) {
    return;  // keep reading
  }
  client.out = handle_request(head);
  client.responded = true;
  ++served_;
  flush(fd, client);
}

void HttpEndpoint::flush(int fd, Client& client) {
  while (client.out_off < client.out.size()) {
    const ssize_t n =
        ::send(fd, client.out.data() + client.out_off,
               client.out.size() - client.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      client.out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      loop_.modify_fd(fd, EPOLLIN | EPOLLOUT);
      return;
    }
    close_client(fd);
    return;
  }
  close_client(fd);  // Connection: close — one exchange per connection
}

std::string HttpEndpoint::response(int code, const char* reason,
                                   const char* content_type,
                                   const std::string& body) const {
  std::string out = strformat("HTTP/1.0 %d %s\r\n", code, reason);
  out += strformat("Content-Type: %s\r\n", content_type);
  out += strformat("Content-Length: %zu\r\n", body.size());
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

std::string HttpEndpoint::handle_request(const std::string& head) const {
  const size_t eol = head.find_first_of("\r\n");
  const std::string line = head.substr(0, eol);
  const size_t sp0 = line.find(' ');
  const size_t sp1 = line.find(' ', sp0 == std::string::npos ? 0 : sp0 + 1);
  const std::string method =
      sp0 == std::string::npos ? line : line.substr(0, sp0);
  std::string path = sp0 == std::string::npos
                         ? std::string()
                         : line.substr(sp0 + 1, sp1 == std::string::npos
                                                    ? std::string::npos
                                                    : sp1 - sp0 - 1);
  const size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);
  if (method != "GET") {
    return response(405, "Method Not Allowed", "text/plain",
                    "only GET is served\n");
  }
  if (path == "/healthz") {
    return response(200, "OK", "text/plain", "ok\n");
  }
  if (path == "/metrics") {
    const Metrics& m =
        config_.metrics ? *config_.metrics : Recorder::global().metrics();
    return response(200, "OK", "text/plain; version=0.0.4",
                    prometheus_text(m));
  }
  if (path == "/statusz") {
    serde::Value status =
        config_.statusz ? config_.statusz() : serde::Value(serde::ValueDict{});
    return response(200, "OK", "application/json",
                    serde::to_json(status) + "\n");
  }
  return response(404, "Not Found", "text/plain", "not found\n");
}

}  // namespace lfm::obs
