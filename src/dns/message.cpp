#include "dns/message.h"

#include <utility>

namespace dohperf::dns {

Message Message::make_query(std::uint16_t id, DomainName name,
                            RecordType type) {
  Message m;
  m.header.id = id;
  m.header.qr = false;
  m.header.rd = true;
  m.questions.push_back(Question{std::move(name), type, RecordClass::kIn});
  return m;
}

Message Message::make_response(Message query, Rcode rcode) {
  Message m;
  m.header = query.header;
  m.header.qr = true;
  m.header.ra = true;
  m.header.rcode = rcode;
  m.questions = std::move(query.questions);
  return m;
}

}  // namespace dohperf::dns
