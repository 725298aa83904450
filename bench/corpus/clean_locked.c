int Global;
pthread_mutex_t lock = PTHREAD_MUTEX_INITIALIZER;

void *Thread1(void *x) {
    pthread_mutex_lock(&lock);
    Global = 42;
    pthread_mutex_unlock(&lock);
    return 0;
}

int main() {
    pthread_t t;
    pthread_create(&t, 0, Thread1, 0);
    pthread_mutex_lock(&lock);
    Global = 43;
    pthread_mutex_unlock(&lock);
    pthread_join(t, 0);
    return Global;
}
