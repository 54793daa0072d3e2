#include "src/poset/event.hpp"

namespace msgorder {

std::string kind_name(EventKind k) {
  switch (k) {
    case EventKind::kInvoke:
      return "s*";
    case EventKind::kSend:
      return "s";
    case EventKind::kReceive:
      return "r*";
    case EventKind::kDeliver:
      return "r";
  }
  return "?";
}

std::string kind_name(UserEventKind k) {
  return k == UserEventKind::kSend ? "s" : "r";
}

std::string to_string(const SystemEvent& e) {
  std::string out = "x";
  out += std::to_string(e.msg);
  out += ".";
  out += kind_name(e.kind);
  return out;
}

std::string to_string(const UserEvent& e) {
  std::string out = "x";
  out += std::to_string(e.msg);
  out += ".";
  out += kind_name(e.kind);
  return out;
}

}  // namespace msgorder
