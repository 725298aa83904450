int G;

void *Worker(void *arg) {
    while (1) {
        break;
    }
    G = 1;
    return 0;
}

int main() {
    pthread_t t;
    pthread_create(&t, 0, Worker, 0);
    G = 2;
    pthread_join(t, 0);
    return 0;
}
